package vm

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"testing"

	"dejavu/internal/bytecode"
	"dejavu/internal/core"
	"dejavu/internal/workloads"
)

// checkRefused asserts that NewImage and New both refuse prog with a
// *bytecode.VerifyError naming method and pc.
func checkRefused(t *testing.T, prog *bytecode.Program, method string, pc int) {
	t.Helper()
	img, ierr := NewImage(prog)
	m, nerr := New(prog, Config{})
	if img != nil || m != nil {
		t.Fatal("a program that fails verification loaded")
	}
	for name, err := range map[string]error{"NewImage": ierr, "New": nerr} {
		var ve *bytecode.VerifyError
		if !errors.As(err, &ve) {
			t.Fatalf("%s: err = %v, want a *bytecode.VerifyError", name, err)
		}
		if ve.Method != method || ve.PC != pc {
			t.Errorf("%s refused at %s pc=%d (%s), want %s pc=%d", name, ve.Method, ve.PC, ve.Reason, method, pc)
		}
	}
}

// vcallsSrc runs two threads through monomorphic callv and getf sites:
// their inline caches fill at run time.
const vcallsSrc = `program vcalls
class A {
  field v
  method get 1 1 {
    load 0
    getf 0
    retv
  }
}
class B {
  field v
  field w
  method get 1 1 {
    load 0
    getf 1
    retv
  }
}
class Main {
  static acc
  static done
  method work 1 3 {
    new A
    dup
    iconst 3
    putf 0
    store 1
    new B
    dup
    iconst 7
    putf 1
    store 2
  loop:
    load 0
    jz out
    load 1
    callv "get" 1
    load 2
    callv "get" 1
    add
    gets Main.acc
    add
    puts Main.acc
    load 0
    iconst 1
    sub
    store 0
    jmp loop
  out:
    gets Main.done
    iconst 1
    add
    puts Main.done
    ret
  }
  method main 0 0 {
    iconst 300
    spawn Main.work
    pop
    iconst 300
    spawn Main.work
    pop
  wait:
    gets Main.done
    iconst 2
    cmpge
    jz wait
    gets Main.acc
    print
    halt
  }
}
entry Main.main
`

// imageRun is one record-then-replay pass from an image: the recording's
// trace and digest, the replay's digest and output, and how many inline
// caches the replay VM filled in its copies of the streams.
type imageRun struct {
	trace          []byte
	recDig, repDig uint64
	out            string
	filled         int
}

// runFromImage records prog from img (seed 3, seeded preemption, fake
// clock) with Run, then replays the trace from img under drive.
func runFromImage(img *Image, drive string) (imageRun, error) {
	ecfg := core.DefaultConfig(core.ModeRecord)
	ecfg.ProgHash = img.Hash()
	ecfg.Preempt = core.NewSeededPreemptor(3, 5, 60)
	ecfg.Time = &core.FakeTime{Base: 1_000_000, Step: 3}
	eng, err := core.NewEngine(ecfg)
	if err != nil {
		return imageRun{}, err
	}
	recDig := NewDigest()
	rec, err := Load(img, Config{Engine: eng, Observer: recDig, IdleSleep: 1})
	if err != nil {
		return imageRun{}, err
	}
	if err := rec.Run(); err != nil {
		return imageRun{}, fmt.Errorf("record: %w", err)
	}
	tr := eng.End()
	rcfg := core.DefaultConfig(core.ModeReplay)
	rcfg.ProgHash = img.Hash()
	rcfg.TraceIn = tr
	reng, err := core.NewEngine(rcfg)
	if err != nil {
		return imageRun{}, err
	}
	repDig := NewDigest()
	rep, err := Load(img, Config{Engine: reng, Observer: repDig, IdleSleep: 1})
	if err != nil {
		return imageRun{}, err
	}
	if err := driveVM(rep, drive); err != nil {
		return imageRun{}, fmt.Errorf("replay under %s: %w", drive, err)
	}
	filled := 0
	for _, code := range append(rep.decoded, rep.plain...) {
		for _, d := range code {
			if d.ICKey != -1 {
				filled++
			}
		}
	}
	return imageRun{tr, recDig.Sum(), repDig.Sum(), string(rep.Output()), filled}, nil
}

// sameStream reports the first instruction where two streams differ.
func sameStream(t *testing.T, what string, got, want *stream) {
	t.Helper()
	if len(got.code) != len(want.code) || fmt.Sprint(got.start) != fmt.Sprint(want.start) {
		t.Fatalf("%s: layout changed: %d instructions %v, want %d %v",
			what, len(got.code), got.start, len(want.code), want.start)
	}
	for i := range got.code {
		if got.code[i] != want.code[i] {
			t.Fatalf("%s: instruction %d changed: %+v, want %+v", what, i, got.code[i], want.code[i])
		}
	}
}

// TestImageSharedAcrossVMs: eight goroutines record and replay from one
// Image at once (run it under -race). Every recording and replay must
// equal one from its own image, and the image's streams must be exactly
// what a fresh NewImage builds: VMs warm their inline caches (vcalls'
// callv and getf sites, prodcons' getf and putf) in their own copies
// only.
func TestImageSharedAcrossVMs(t *testing.T) {
	progs := map[string]*bytecode.Program{
		"hashy":    workloads.Hashy(20, 25),
		"bank":     workloads.Registry["bank"](),
		"prodcons": workloads.Registry["prodcons"](),
		"vcalls":   bytecode.MustAssemble(vcallsSrc),
	}
	for name, prog := range progs {
		t.Run(name, func(t *testing.T) {
			want := make(map[string]imageRun)
			for _, drive := range digestDrives {
				img, err := NewImage(prog)
				if err != nil {
					t.Fatal(err)
				}
				if want[drive], err = runFromImage(img, drive); err != nil {
					t.Fatal(err)
				}
			}
			img, err := NewImage(prog)
			if err != nil {
				t.Fatal(err)
			}
			got := make([]imageRun, 8)
			errs := make([]error, 8)
			var wg sync.WaitGroup
			for i := range got {
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					got[i], errs[i] = runFromImage(img, digestDrives[i%len(digestDrives)])
				}(i)
			}
			wg.Wait()
			for i, g := range got {
				drive := digestDrives[i%len(digestDrives)]
				w := want[drive]
				if errs[i] != nil {
					t.Fatalf("goroutine %d: %v", i, errs[i])
				}
				if !bytes.Equal(g.trace, w.trace) || g.recDig != w.recDig || g.repDig != w.repDig || g.out != w.out {
					t.Fatalf("goroutine %d (%s): record %x replay %x, want %x %x (trace equal %v, output equal %v)",
						i, drive, g.recDig, g.repDig, w.recDig, w.repDig, bytes.Equal(g.trace, w.trace), g.out == w.out)
				}
				if g.recDig != g.repDig {
					t.Fatalf("goroutine %d: replay digest %x, recorded %x", i, g.repDig, g.recDig)
				}
				if (name == "vcalls" || name == "prodcons") && g.filled == 0 {
					t.Fatalf("goroutine %d: no inline cache filled; the template check is vacuous", i)
				}
			}
			fresh, err := NewImage(prog)
			if err != nil {
				t.Fatal(err)
			}
			sameStream(t, "fused", &img.fused, &fresh.fused)
			sameStream(t, "plain", img.plainStream(), fresh.plainStream())
		})
	}
}

// TestLoadAllocs bounds what a VM built from a loaded image allocates:
// its heap, scheduler, engine and mirrors, with no verification, hashing
// or decoding left in it.
func TestLoadAllocs(t *testing.T) {
	img, err := NewImage(workloads.Bank(4, 8, 200))
	if err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := Load(img, Config{}); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 60 {
		t.Fatalf("Load makes %.0f allocations, want at most 60", allocs)
	}
	t.Logf("Load: %.0f allocations", allocs)
}
