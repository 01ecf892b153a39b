package vm

import (
	"fmt"
	"sync"

	"dejavu/internal/bytecode"
)

// Image is a program loaded once: validated, verified, hashed and decoded
// ("pre-loading/pre-compiling all classes", §2.4). Every VM built from it
// by Load starts from the same compiled code, and none repeats the work.
// An Image is immutable and safe for concurrent use; each VM copies the
// decoded streams it runs (their inline caches fill at run time).
type Image struct {
	prog *bytecode.Program
	hash uint64

	// frameNeed is, per method ID, the stack slots pushFrame reserves:
	// header + locals + verified MaxStack + opHeadroom.
	frameNeed []int
	// internIdx is, per string-pool entry, its index among the VM's
	// interned strings. loadMirrors interns the pool first and in order,
	// so the index is a function of the program alone.
	internIdx []int32

	// fused is the token-threaded stream runSlice executes, with Aux
	// resolved (SConst intern indexes, native IDs, GetS/PutS refness).
	fused stream
	// plain is the unfused stream execOne executes, built on first need.
	plainOnce sync.Once
	plain     stream
}

// opHeadroom is the slack each frame reserves beyond its verified
// footprint. No instruction needs it (MaxStack covers every push), but
// it is part of every frame's size, so it fixes where stacks grow and
// with them heap addresses and checkpoint bytes.
const opHeadroom = 4

// stream is a decoded program laid out flat: method i's code is
// code[start[i]:start[i+1]].
type stream struct {
	code  []bytecode.DInstr
	start []int
}

// NewImage validates and verifies prog and prepares everything a VM
// loads from it. A program that fails verification is refused with the
// verifier's *bytecode.VerifyError, naming the method and pc.
func NewImage(prog *bytecode.Program) (*Image, error) {
	if err := prog.Validate(); err != nil {
		return nil, err
	}
	if prog.EntryMethod().NArgs != 0 {
		return nil, fmt.Errorf("vm: entry method %s must take no arguments", prog.EntryMethod().FullName())
	}
	// Verification also yields per-method MaxStack facts, which pre-size
	// activation frames so call-heavy code rarely grows its stack
	// mid-method. Sizing is a pure function of the program, so record and
	// replay reserve identically and growth points stay symmetric.
	facts, err := VerifyProgram(prog)
	if err != nil {
		return nil, err
	}
	img := &Image{
		prog:      prog,
		hash:      ProgramHash(prog),
		frameNeed: make([]int, len(prog.Methods)),
		internIdx: make([]int32, len(prog.Strings)),
	}
	for i, m := range prog.Methods {
		img.frameNeed[i] = FrameHeader + m.NLocals + facts[i].MaxStack + opHeadroom
	}
	first := make(map[string]int32, len(prog.Strings))
	for i, s := range prog.Strings {
		idx, ok := first[s]
		if !ok {
			idx = int32(len(first))
			first[s] = idx
		}
		img.internIdx[i] = idx
	}
	img.fused = img.decode(true)
	return img, nil
}

// Program returns the program the image was built from.
func (img *Image) Program() *bytecode.Program { return img.prog }

// Hash returns the program identity hash (ProgramHash).
func (img *Image) Hash() uint64 { return img.hash }

// plainStream returns the unfused stream, decoding it on first use.
func (img *Image) plainStream() *stream {
	img.plainOnce.Do(func() { img.plain = img.decode(false) })
	return &img.plain
}

// decode builds a flat decoded stream (fused or not) and pre-resolves
// the identity-pure caches the bytecode layer cannot know: SConst intern
// indexes, native IDs and static-slot refness.
func (img *Image) decode(fuse bool) stream {
	p := img.prog
	dp := bytecode.DecodeProgram(p, fuse)
	s := stream{start: make([]int, len(dp.Methods)+1)}
	for i, dm := range dp.Methods {
		s.start[i+1] = s.start[i] + len(dm.Code)
	}
	s.code = make([]bytecode.DInstr, 0, s.start[len(dp.Methods)])
	for _, dm := range dp.Methods {
		s.code = append(s.code, dm.Code...)
	}
	for i := range s.code {
		d := &s.code[i]
		switch d.Op {
		case bytecode.SConst:
			d.Aux = img.internIdx[d.A]
		case bytecode.Native:
			d.Aux = int32(nativeID(p.Strings[d.A]))
		case bytecode.GetS, bytecode.PutS:
			// Static-slot refness is a pure function of the program, so
			// it is resolved once here instead of through two dependent
			// table loads on every access (Aux defaults to -1).
			d.Aux = 0
			if p.Classes[d.A].Statics[d.B].IsRef {
				d.Aux = 1
			}
		}
	}
	return s
}

// copyOut gives a VM its own copy of s, one allocation for the code,
// re-sliced per method: the VM's inline caches fill in place.
func (s *stream) copyOut() [][]bytecode.DInstr {
	code := append([]bytecode.DInstr(nil), s.code...)
	methods := make([][]bytecode.DInstr, len(s.start)-1)
	for i := range methods {
		methods[i] = code[s.start[i]:s.start[i+1]:s.start[i+1]]
	}
	return methods
}
