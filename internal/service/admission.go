package service

import (
	"context"
	"errors"
)

// errOverloaded is returned when the admission queue is full; the handler
// maps it to 429 with a Retry-After hint.
var errOverloaded = errors.New("service: admission queue full")

// admission is the bounded worker pool with an explicit admission queue:
// at most workers simulations run concurrently, at most depth more wait
// their turn, and anything beyond that is shed immediately instead of
// piling onto an unbounded backlog.
type admission struct {
	queue chan struct{} // held from admit to finish; cap workers+depth
	slots chan struct{} // held while simulating; cap workers
}

func newAdmission(workers, depth int) *admission {
	return &admission{
		queue: make(chan struct{}, workers+depth),
		slots: make(chan struct{}, workers),
	}
}

// admit reserves a queue position without blocking: a full queue returns
// errOverloaded.
func (a *admission) admit() error {
	select {
	case a.queue <- struct{}{}:
		return nil
	default:
		return errOverloaded
	}
}

// acquire waits for a worker slot; the caller must already hold a queue
// position.
func (a *admission) acquire(ctx context.Context) error {
	select {
	case a.slots <- struct{}{}:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

func (a *admission) releaseSlot()  { <-a.slots }
func (a *admission) releaseQueue() { <-a.queue }

// busy is the number of simulations currently executing; waiting is the
// number admitted but not yet running. The two channel lengths are read
// without synchronization — a request can release its queue position between
// the reads — so the difference is clamped: /metrics must never report a
// negative queue depth.
func (a *admission) busy() int { return len(a.slots) }
func (a *admission) waiting() int {
	if n := len(a.queue) - len(a.slots); n > 0 {
		return n
	}
	return 0
}
