package bpred

import (
	"math/rand"
	"testing"
)

func TestPerceptronLearnsAlwaysTaken(t *testing.T) {
	p := NewPerceptron(512, 64)
	for i := 0; i < 200; i++ {
		p.Predict(0x40)
		p.Train(0x40, true)
	}
	if !p.Predict(0x40) {
		t.Error("did not learn an always-taken branch")
	}
}

func TestPerceptronLearnsAlternating(t *testing.T) {
	p := NewPerceptron(512, 64)
	correct := 0
	for i := 0; i < 2000; i++ {
		taken := i%2 == 0
		if p.Predict(0x80) == taken {
			correct++
		}
		p.Train(0x80, taken)
	}
	// After warmup the alternating pattern is trivially history-predictable.
	if rate := float64(correct) / 2000; rate < 0.9 {
		t.Errorf("alternating pattern accuracy %.2f, want > 0.9", rate)
	}
}

func TestPerceptronLearnsPeriodicPattern(t *testing.T) {
	p := NewPerceptron(512, 64)
	correct, total := 0, 0
	for i := 0; i < 8000; i++ {
		taken := i%7 == 0
		if i > 2000 {
			total++
			if p.Predict(0x123) == taken {
				correct++
			}
		}
		p.Train(0x123, taken)
	}
	if rate := float64(correct) / float64(total); rate < 0.95 {
		t.Errorf("period-7 accuracy %.2f, want > 0.95", rate)
	}
}

func TestPerceptronRandomIsHard(t *testing.T) {
	p := NewPerceptron(512, 64)
	r := rand.New(rand.NewSource(7))
	correct := 0
	const n = 10000
	for i := 0; i < n; i++ {
		taken := r.Intn(2) == 0
		if p.Predict(0x200) == taken {
			correct++
		}
		p.Train(0x200, taken)
	}
	rate := float64(correct) / n
	if rate > 0.65 {
		t.Errorf("random branch accuracy %.2f; predictor should not beat ~0.5 by much", rate)
	}
}

func TestPerceptronCorrelation(t *testing.T) {
	// Branch B repeats branch A's last outcome: global history makes B
	// perfectly predictable even though B's own PC carries no pattern.
	p := NewPerceptron(512, 64)
	r := rand.New(rand.NewSource(9))
	correctB, total := 0, 0
	last := false
	for i := 0; i < 20000; i++ {
		a := r.Intn(2) == 0
		p.Predict(0x300)
		p.Train(0x300, a)
		last = a
		b := last
		if i > 5000 {
			total++
			if p.Predict(0x308) == b {
				correctB++
			}
		}
		p.Train(0x308, b)
	}
	if rate := float64(correctB) / float64(total); rate < 0.9 {
		t.Errorf("correlated branch accuracy %.2f, want > 0.9", rate)
	}
}

func TestPerceptronBadConfig(t *testing.T) {
	for _, f := range []func(){
		func() { NewPerceptron(0, 64) },
		func() { NewPerceptron(512, 0) },
		func() { NewPerceptron(512, 65) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("bad config did not panic")
				}
			}()
			f()
		}()
	}
}
