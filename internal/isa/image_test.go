package isa

import (
	"bytes"
	"encoding/binary"
	"reflect"
	"runtime"
	"strings"
	"testing"
)

func imageProgram() *Program {
	p := &Program{
		Name: "img-test",
		FP:   true,
		Data: []byte{1, 2, 3, 4, 5, 6, 7, 8, 9},
		Instrs: []Instruction{
			{Op: OpLDIMM, Dest: 1, Imm: 42, HasImm: true},
			{Op: OpADD, Dest: 2, Src1: 1, Src2: 1, Start: true, EDest: true},
			{Op: OpADD, Src1: 1, Imm: 1, HasImm: true, IDest: true, IDestIdx: 3, Start: true},
			{Op: OpSTQ, Src1: 2, Src2: 1, Imm: 8, AliasClass: 2},
			{Op: OpHALT},
		},
	}
	for i := range p.Instrs {
		p.Instrs[i].Canonicalize()
	}
	return p
}

func TestImageRoundTrip(t *testing.T) {
	p := imageProgram()
	var buf bytes.Buffer
	if err := WriteImage(&buf, p); err != nil {
		t.Fatal(err)
	}
	q, err := ReadImage(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if q.Name != p.Name || q.FP != p.FP {
		t.Errorf("metadata changed: %q/%v -> %q/%v", p.Name, p.FP, q.Name, q.FP)
	}
	if !bytes.Equal(q.Data, p.Data) {
		t.Errorf("data changed: %v -> %v", p.Data, q.Data)
	}
	if len(q.Instrs) != len(p.Instrs) {
		t.Fatalf("instr count changed")
	}
	for i := range q.Instrs {
		if q.Instrs[i] != p.Instrs[i] {
			t.Errorf("instr %d changed: %+v -> %+v", i, p.Instrs[i], q.Instrs[i])
		}
	}
}

func TestImageEmptyData(t *testing.T) {
	p := &Program{Name: "", Instrs: []Instruction{{Op: OpHALT}}}
	var buf bytes.Buffer
	if err := WriteImage(&buf, p); err != nil {
		t.Fatal(err)
	}
	q, err := ReadImage(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(q.Data) != 0 || len(q.Instrs) != 1 {
		t.Errorf("unexpected content: %d data, %d instrs", len(q.Data), len(q.Instrs))
	}
}

func TestImageRejectsCorruption(t *testing.T) {
	p := imageProgram()
	var buf bytes.Buffer
	if err := WriteImage(&buf, p); err != nil {
		t.Fatal(err)
	}
	good := buf.Bytes()

	cases := []struct {
		name   string
		mangle func([]byte) []byte
	}{
		{"bad magic", func(b []byte) []byte {
			c := append([]byte(nil), b...)
			c[0] = 'X'
			return c
		}},
		{"truncated header", func(b []byte) []byte { return b[:10] }},
		{"truncated body", func(b []byte) []byte { return b[:len(b)-4] }},
		{"huge instr count", func(b []byte) []byte {
			c := append([]byte(nil), b...)
			c[12], c[13], c[14], c[15] = 0xff, 0xff, 0xff, 0x7f
			return c
		}},
		{"empty", func(b []byte) []byte { return nil }},
	}
	for _, c := range cases {
		if _, err := ReadImage(bytes.NewReader(c.mangle(good))); err == nil {
			t.Errorf("%s: accepted", c.name)
		}
	}
}

func TestImageRejectsInvalidProgram(t *testing.T) {
	// A syntactically decodable image whose program fails validation
	// (no halt at the end).
	p := &Program{Name: "bad", Instrs: []Instruction{{Op: OpNOP}}}
	var buf bytes.Buffer
	words, _ := p.EncodeAll()
	buf.Write([]byte("BRD64\x00\x01\x00"))
	for _, v := range []uint32{uint32(len(p.Name)), uint32(len(words)), 0, 0} {
		buf.WriteByte(byte(v))
		buf.WriteByte(byte(v >> 8))
		buf.WriteByte(byte(v >> 16))
		buf.WriteByte(byte(v >> 24))
	}
	buf.WriteString(p.Name)
	for _, w := range words {
		var tmp [8]byte
		for i := 0; i < 8; i++ {
			tmp[i] = byte(w >> (8 * uint(i)))
		}
		buf.Write(tmp[:])
	}
	if _, err := ReadImage(&buf); err == nil || !strings.Contains(err.Error(), "halt") {
		t.Errorf("invalid program accepted or wrong error: %v", err)
	}
}

// imageHeader is a .brd header declaring the given sizes, with no body.
func imageHeader(nameLen, instrs, dataLen uint32) []byte {
	b := append([]byte(nil), imageMagic[:]...)
	for _, v := range []uint32{nameLen, instrs, dataLen, 0} {
		b = binary.LittleEndian.AppendUint32(b, v)
	}
	return b
}

// TestReadImageAllocatesWhatArrives: a header that declares the largest
// sizes ReadImage accepts, followed by few or no bytes, fails having
// allocated about what was sent. Allocating by the declared sizes took
// 128 MiB per request.
func TestReadImageAllocatesWhatArrives(t *testing.T) {
	halt, err := (&Instruction{Op: OpHALT}).Encode()
	if err != nil {
		t.Fatal(err)
	}
	cases := map[string][]byte{
		"header only":          imageHeader(0, ImageLimit, ImageLimit),
		"one instruction sent": binary.LittleEndian.AppendUint64(imageHeader(0, ImageLimit, 0), halt),
		"data declared":        binary.LittleEndian.AppendUint64(imageHeader(0, 1, ImageLimit), halt),
	}
	for name, img := range cases {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := ReadImage(bytes.NewReader(img))
		runtime.ReadMemStats(&after)
		if err == nil {
			t.Errorf("%s: accepted", name)
		}
		if alloc := after.TotalAlloc - before.TotalAlloc; alloc >= 1<<20 {
			t.Errorf("%s: allocated %d bytes to reject a %d-byte image", name, alloc, len(img))
		}
	}
}

// FuzzReadImage: no input panics ReadImage, and every image that decodes
// round-trips through WriteImage to the same program and the same bytes.
func FuzzReadImage(f *testing.F) {
	var good, empty bytes.Buffer
	if err := WriteImage(&good, imageProgram()); err != nil {
		f.Fatal(err)
	}
	if err := WriteImage(&empty, &Program{Instrs: []Instruction{{Op: OpHALT}}}); err != nil {
		f.Fatal(err)
	}
	f.Add(good.Bytes())
	f.Add(empty.Bytes())
	f.Add(good.Bytes()[:10])
	f.Add(good.Bytes()[:good.Len()-4])
	f.Add(imageHeader(0, ImageLimit, ImageLimit))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, img []byte) {
		p, err := ReadImage(bytes.NewReader(img))
		if err != nil {
			return
		}
		var out bytes.Buffer
		if err := WriteImage(&out, p); err != nil {
			t.Fatalf("decoded program does not encode: %v", err)
		}
		q, err := ReadImage(bytes.NewReader(out.Bytes()))
		if err != nil {
			t.Fatalf("re-encoded image does not decode: %v", err)
		}
		if !reflect.DeepEqual(p, q) {
			t.Fatalf("round trip changed the program:\n%+v\n%+v", p, q)
		}
		var again bytes.Buffer
		if err := WriteImage(&again, q); err != nil || !bytes.Equal(again.Bytes(), out.Bytes()) {
			t.Fatalf("re-encoding is not stable (err %v)", err)
		}
	})
}
