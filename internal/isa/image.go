package isa

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"io"
)

// Binary program images (.brd files) let the braid compiler's output be
// stored and reloaded, the way the paper's binary translation tool rewrote
// Alpha executables. The format is little-endian:
//
//	offset  size  field
//	0       8     magic "BRD64\x00\x01\x00" (includes a format version)
//	8       4     name length N
//	12      4     instruction count I
//	16      4     data segment length D
//	20      4     flags (bit 0: FP program)
//	24      N     name bytes
//	.       8*I   instruction words (Instruction.Encode)
//	.       D     data segment
//
// Labels are not stored: they are assembler conveniences, not semantics.
var imageMagic = [8]byte{'B', 'R', 'D', '6', '4', 0, 1, 0}

// ImageLimit bounds the declared sizes a reader will accept (8 Mi
// instructions, or 8 MiB of data), so corrupt headers cannot trigger huge
// allocations. The assembler holds data segments to the same bound.
const ImageLimit = 8 << 20

// WriteImage serializes the program to w in .brd format.
func WriteImage(w io.Writer, p *Program) error {
	words, err := p.EncodeAll()
	if err != nil {
		return fmt.Errorf("isa: image: %w", err)
	}
	var buf bytes.Buffer
	buf.Write(imageMagic[:])
	var flags uint32
	if p.FP {
		flags |= 1
	}
	hdr := []uint32{uint32(len(p.Name)), uint32(len(words)), uint32(len(p.Data)), flags}
	for _, v := range hdr {
		if err := binary.Write(&buf, binary.LittleEndian, v); err != nil {
			return err
		}
	}
	buf.WriteString(p.Name)
	for _, word := range words {
		if err := binary.Write(&buf, binary.LittleEndian, word); err != nil {
			return err
		}
	}
	buf.Write(p.Data)
	_, err = w.Write(buf.Bytes())
	return err
}

// EncodeImage returns p's .brd image and its hex SHA-256. The digest is the
// program's identity wherever it leaves the process: a checkpoint record's
// prog, braidd's program cache key and the fleet's image_sha256.
func EncodeImage(p *Program) ([]byte, string, error) {
	var buf bytes.Buffer
	if err := WriteImage(&buf, p); err != nil {
		return nil, "", err
	}
	sum := sha256.Sum256(buf.Bytes())
	return buf.Bytes(), hex.EncodeToString(sum[:]), nil
}

// ReadImage deserializes a .brd image and validates the program.
func ReadImage(r io.Reader) (*Program, error) {
	var magic [8]byte
	if _, err := io.ReadFull(r, magic[:]); err != nil {
		return nil, fmt.Errorf("isa: image: reading magic: %w", err)
	}
	if magic != imageMagic {
		return nil, fmt.Errorf("isa: image: bad magic %q", magic[:])
	}
	var hdr [4]uint32
	for i := range hdr {
		if err := binary.Read(r, binary.LittleEndian, &hdr[i]); err != nil {
			return nil, fmt.Errorf("isa: image: reading header: %w", err)
		}
	}
	nameLen, instrs, dataLen, flags := hdr[0], hdr[1], hdr[2], hdr[3]
	if nameLen > 4096 || instrs > ImageLimit || dataLen > ImageLimit {
		return nil, fmt.Errorf("isa: image: implausible sizes (name %d, instrs %d, data %d)", nameLen, instrs, dataLen)
	}
	name := make([]byte, nameLen)
	if _, err := io.ReadFull(r, name); err != nil {
		return nil, fmt.Errorf("isa: image: reading name: %w", err)
	}
	raw, err := readBounded(r, 8*int(instrs))
	if err != nil {
		return nil, fmt.Errorf("isa: image: reading instructions: %w", err)
	}
	words := make([]uint64, instrs)
	for i := range words {
		words[i] = binary.LittleEndian.Uint64(raw[8*i:])
	}
	ins, err := DecodeAll(words)
	if err != nil {
		return nil, fmt.Errorf("isa: image: %w", err)
	}
	data, err := readBounded(r, int(dataLen))
	if err != nil {
		return nil, fmt.Errorf("isa: image: reading data: %w", err)
	}
	p := &Program{
		Name:   string(name),
		Instrs: ins,
		Data:   data,
		FP:     flags&1 != 0,
	}
	if err := p.Validate(); err != nil {
		return nil, fmt.Errorf("isa: image: %w", err)
	}
	return p, nil
}

// readChunk is readBounded's first buffer size.
const readChunk = 64 << 10

// readBounded reads exactly n bytes from r. Its buffer starts at readChunk
// and doubles only as bytes arrive, so a header that declares more than the
// stream holds fails having allocated about what was sent, not what was
// declared.
func readBounded(r io.Reader, n int) ([]byte, error) {
	buf := make([]byte, 0, min(n, readChunk))
	for len(buf) < n {
		if len(buf) == cap(buf) {
			buf = append(make([]byte, 0, min(n, 2*cap(buf))), buf...)
		}
		k, err := io.ReadFull(r, buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+k]
		if err != nil {
			return nil, err
		}
	}
	return buf, nil
}
