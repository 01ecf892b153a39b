package vm

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"dejavu/internal/bytecode"
)

// runMain assembles src, runs it, and returns the output.
func runMain(t *testing.T, src string) (string, error) {
	t.Helper()
	p, err := bytecode.Assemble(src)
	if err != nil {
		t.Fatalf("assemble: %v", err)
	}
	m, err := New(p, Config{MaxEvents: 2_000_000})
	if err != nil {
		t.Fatal(err)
	}
	err = m.Run()
	return string(m.Output()), err
}

func TestStackManipulationOps(t *testing.T) {
	out, err := runMain(t, `
program p
class Main {
  method main 0 0 {
    iconst 1
    iconst 2
    swap
    print      # 1
    print      # 2
    iconst 7
    dup
    add
    print      # 14
    iconst 5
    not
    print      # -6
    iconst 1
    iconst 4
    shl
    print      # 16
    iconst -16
    iconst 2
    shr
    print      # -4
    halt
  }
}
entry Main.main
`)
	if err != nil {
		t.Fatal(err)
	}
	if out != "1\n2\n14\n-6\n16\n-4\n" {
		t.Fatalf("output = %q", out)
	}
}

func TestInstOfAndNullChecks(t *testing.T) {
	out, err := runMain(t, `
program p
class A { field x }
class B { field y }
class Main {
  method main 0 1 {
    new A
    store 0
    load 0
    instof A
    print      # 1
    load 0
    instof B
    print      # 0
    null
    instof A
    print      # 0
    iconst 3
    newarr int
    instof A
    print      # 0 (arrays are not class instances)
    halt
  }
}
entry Main.main
`)
	if err != nil {
		t.Fatal(err)
	}
	if out != "1\n0\n0\n0\n" {
		t.Fatalf("output = %q", out)
	}
}

func TestThreadIDAndYield(t *testing.T) {
	out, err := runMain(t, `
program p
class Main {
  method w 0 1 {
    threadid
    print
    ret
  }
  method main 0 0 {
    threadid
    print       # 0
    spawn Main.w
    pop
    yield       # voluntary, deterministic switch lets the child run
    halt
  }
}
entry Main.main
`)
	if err != nil {
		t.Fatal(err)
	}
	if out != "0\n1\n" {
		t.Fatalf("output = %q", out)
	}
}

func TestInterruptWakesSleeper(t *testing.T) {
	out, err := runMain(t, `
program p
class Main {
  method sleeper 0 1 {
    iconst 1000000
    sleep
    native "interrupted" 0
    print        # 1: woken by interrupt, not timer
    ret
  }
  method main 0 1 {
    spawn Main.sleeper
    store 0
    yield        # let the sleeper park itself
    load 0
    interrupt
    ret
  }
}
entry Main.main
`)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "1\n") {
		t.Fatalf("output = %q", out)
	}
}

func TestTimedWaitTimesOut(t *testing.T) {
	// Nobody notifies; the timed wait must expire via clock reads.
	out, err := runMain(t, `
program p
class Main {
  method main 0 1 {
    new Main
    store 0
    load 0
    monenter
    iconst 30
    load 0
    swap
    timedwait
    load 0
    monexit
    sconst "woke"
    prints
    halt
  }
}
entry Main.main
`)
	if err != nil {
		t.Fatal(err)
	}
	if out != "woke\n" {
		t.Fatalf("output = %q", out)
	}
}

func TestCallVErrors(t *testing.T) {
	cases := []struct{ name, src, want string }{
		{"null receiver", `
program p
class Main {
  method f 1 1 { ret }
  method main 0 0 {
    null
    callv "f" 1
    halt
  }
}
entry Main.main`, "null or primitive receiver"},
		{"missing method", `
program p
class A { field x }
class Main {
  method main 0 1 {
    new A
    callv "nosuch" 1
    halt
  }
}
entry Main.main`, "no method"},
		{"arity mismatch", `
program p
class A {
  field x
  method f 2 2 { ret }
}
class Main {
  method main 0 1 {
    new A
    callv "f" 1
    halt
  }
}
entry Main.main`, "expected"},
	}
	for _, tc := range cases {
		_, err := runMain(t, tc.src)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want %q", tc.name, err, tc.want)
		}
	}
}

func TestMonitorMisuseTraps(t *testing.T) {
	_, err := runMain(t, `
program p
class Main {
  method main 0 1 {
    new Main
    store 0
    load 0
    monexit
    halt
  }
}
entry Main.main
`)
	if err == nil || !strings.Contains(err.Error(), "does not own") {
		t.Fatalf("err = %v", err)
	}
	_, err = runMain(t, `
program p
class Main {
  method main 0 1 {
    new Main
    notify
    halt
  }
}
entry Main.main
`)
	if err == nil || !strings.Contains(err.Error(), "does not own") {
		t.Fatalf("err = %v", err)
	}
}

// TestArithmeticAgainstGo is the interpreter-semantics property test:
// random expression trees are compiled to bytecode and evaluated both by
// the VM and by direct Go arithmetic; results must agree (Go and the VM
// share two's-complement int64 semantics).
func TestArithmeticAgainstGo(t *testing.T) {
	type node struct {
		op    bytecode.Opcode
		val   int64 // leaf
		l, r  *node
		unary bool
	}
	var gen func(rng *rand.Rand, depth int) *node
	gen = func(rng *rand.Rand, depth int) *node {
		if depth == 0 || rng.Intn(3) == 0 {
			return &node{val: rng.Int63n(1<<20) - 1<<19}
		}
		ops := []bytecode.Opcode{
			bytecode.Add, bytecode.Sub, bytecode.Mul, bytecode.Div, bytecode.Mod,
			bytecode.And, bytecode.Or, bytecode.Xor, bytecode.Shl, bytecode.Shr,
			bytecode.Neg, bytecode.Not,
		}
		op := ops[rng.Intn(len(ops))]
		n := &node{op: op, l: gen(rng, depth-1)}
		if op == bytecode.Neg || op == bytecode.Not {
			n.unary = true
		} else {
			n.r = gen(rng, depth-1)
		}
		return n
	}
	var eval func(n *node) (int64, bool)
	eval = func(n *node) (int64, bool) {
		if n.op == 0 {
			return n.val, true
		}
		a, ok := eval(n.l)
		if !ok {
			return 0, false
		}
		if n.unary {
			if n.op == bytecode.Neg {
				return -a, true
			}
			return ^a, true
		}
		b, ok := eval(n.r)
		if !ok {
			return 0, false
		}
		switch n.op {
		case bytecode.Add:
			return a + b, true
		case bytecode.Sub:
			return a - b, true
		case bytecode.Mul:
			return a * b, true
		case bytecode.Div:
			if b == 0 {
				return 0, false
			}
			return a / b, true
		case bytecode.Mod:
			if b == 0 {
				return 0, false
			}
			return a % b, true
		case bytecode.And:
			return a & b, true
		case bytecode.Or:
			return a | b, true
		case bytecode.Xor:
			return a ^ b, true
		case bytecode.Shl:
			return a << uint(b&63), true
		case bytecode.Shr:
			return a >> uint(b&63), true
		}
		return 0, false
	}
	var emit func(mb *bytecode.MethodBuilder, n *node)
	emit = func(mb *bytecode.MethodBuilder, n *node) {
		if n.op == 0 {
			mb.Const(n.val)
			return
		}
		emit(mb, n.l)
		if !n.unary {
			emit(mb, n.r)
		}
		mb.Emit(n.op)
	}

	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		tree := gen(rng, 5)
		want, ok := eval(tree)
		if !ok {
			return true // division by zero: covered by trap tests
		}
		b := bytecode.NewBuilder("expr")
		mb := b.Class("Main").Method("main", 0, 0)
		emit(mb, tree)
		mb.Emit(bytecode.Print).Emit(bytecode.Halt)
		b.Entry(mb)
		prog, err := b.Program()
		if err != nil {
			t.Logf("seed %d: build: %v", seed, err)
			return false
		}
		m, err := New(prog, Config{})
		if err != nil {
			t.Logf("seed %d: new: %v", seed, err)
			return false
		}
		if err := m.Run(); err != nil {
			t.Logf("seed %d: run: %v", seed, err)
			return false
		}
		got := strings.TrimSpace(string(m.Output()))
		return got == fmt.Sprintf("%d", want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// stepToEnd drives m one Step at a time, as a debugger or a session
// travel does, and returns the run's error.
func stepToEnd(m *VM) error {
	for {
		done, err := m.Step()
		if err != nil {
			return err
		}
		if done {
			return nil
		}
	}
}

// innermostTrap returns the deepest VMError in err's chain: a trap raised
// inside a native callback is reported at the callback's own instruction.
func innermostTrap(err error) *VMError {
	var found *VMError
	for err != nil {
		if ve, ok := err.(*VMError); ok {
			found = ve
		}
		err = errors.Unwrap(err)
	}
	return found
}

// trapParityCases are programs that trap in newarr, astore, instof,
// spawn, sleep, interrupt or prints; the line marked "# trap" is the
// trap's source line.
var trapParityCases = []struct {
	name   string
	src    string
	tool   bool // run Main.tool on a tool VM attached to Main.main's VM
	method string
	pc     int
	reason string
}{
	{"newarr negative length", `
program p
class Main {
  method main 0 0 {
    iconst -1
    newarr int   # trap
    halt
  }
}
entry Main.main`, false, "Main.main", 1, "bad array length -1"},
	{"newarr huge length", `
program p
class Main {
  method main 0 0 {
    iconst 268435457
    newarr byte   # trap
    halt
  }
}
entry Main.main`, false, "Main.main", 1, "bad array length 268435457"},
	{"newarr reference length", `
program p
class Main {
  method main 0 0 {
    null
    newarr ref   # trap
    halt
  }
}
entry Main.main`, false, "Main.main", 1, "type error: expected primitive, found reference"},
	{"astore reference into int array", `
program p
class Main {
  method main 0 0 {
    iconst 2
    newarr int
    iconst 0
    null
    astore   # trap
    halt
  }
}
entry Main.main`, false, "Main.main", 4, "type error: reference into int array"},
	{"astore reference into byte array", `
program p
class Main {
  method main 0 0 {
    iconst 2
    newarr byte
    iconst 1
    null
    astore   # trap
    halt
  }
}
entry Main.main`, false, "Main.main", 4, "type error: reference into byte array"},
	{"astore primitive into ref array", `
program p
class Main {
  method main 0 0 {
    iconst 2
    newarr ref
    iconst 0
    iconst 7
    astore   # trap
    halt
  }
}
entry Main.main`, false, "Main.main", 4, "type error: primitive into ref array"},
	{"astore on non-array", `
program p
class A { field x }
class Main {
  method main 0 0 {
    new A
    iconst 0
    iconst 1
    astore   # trap
    halt
  }
}
entry Main.main`, false, "Main.main", 3, "astore on non-array"},
	{"astore out of bounds", `
program p
class Main {
  method main 0 0 {
    iconst 2
    newarr int
    iconst 5
    iconst 1
    astore   # trap
    halt
  }
}
entry Main.main`, false, "Main.main", 4, "heap: index 5 out of bounds (length 2)"},
	{"astore reference index", `
program p
class Main {
  method main 0 0 {
    iconst 2
    newarr int
    null
    iconst 1
    astore   # trap
    halt
  }
}
entry Main.main`, false, "Main.main", 4, "type error: expected primitive, found reference"},
	{"astore on null", `
program p
class Main {
  method main 0 0 {
    null
    iconst 0
    iconst 1
    astore   # trap
    halt
  }
}
entry Main.main`, false, "Main.main", 3, "null reference"},
	{"astore underflow", `
program p
class Main {
  method main 0 0 {
    astore   # trap
    halt
  }
}
entry Main.main`, false, "Main.main", 0, "operand stack underflow"},
	{"astore on stub", `
program p
class Main {
  method main 0 0 {
    halt
  }
  method tool 0 0 {
    native "remotedict" 0
    iconst 0
    iconst 0
    astore   # trap
    halt
  }
}
entry Main.main`, true, "Main.tool", 3, "remote objects are read-only (astore on stub)"},
	{"instof on primitive", `
program p
class A { field x }
class Main {
  method main 0 0 {
    iconst 3
    instof A   # trap
    halt
  }
}
entry Main.main`, false, "Main.main", 1, "type error: expected reference, found primitive"},
	{"spawn underflow", `
program p
class Main {
  method w 1 1 {
    ret
  }
  method main 0 0 {
    spawn Main.w   # trap
    halt
  }
}
entry Main.main`, false, "Main.main", 0, "operand stack underflow"},
	{"sleep on reference", `
program p
class Main {
  method main 0 0 {
    null
    sleep   # trap
    halt
  }
}
entry Main.main`, false, "Main.main", 1, "type error: expected primitive, found reference"},
	{"blocking sleep inside a callback", `
program p
class Main {
  method handler 2 2 {
    iconst 5
    sleep   # trap
    ret
  }
  method main 0 1 {
  loop:
    sconst "Main.handler"
    iconst 8
    native "pollevents" 2
    pop
    jmp loop
  }
}
entry Main.main`, false, "Main.handler", 1, "blocking sleep inside a native callback"},
	{"interrupt of unknown thread", `
program p
class Main {
  method main 0 0 {
    iconst 99
    interrupt   # trap
    halt
  }
}
entry Main.main`, false, "Main.main", 1, "interrupt of unknown thread 99"},
	{"interrupt reference", `
program p
class Main {
  method main 0 0 {
    null
    interrupt   # trap
    halt
  }
}
entry Main.main`, false, "Main.main", 1, "type error: expected primitive, found reference"},
	{"prints on non-string", `
program p
class Main {
  method main 0 0 {
    iconst 3
    newarr int
    prints   # trap
    halt
  }
}
entry Main.main`, false, "Main.main", 2, "prints on non-string"},
	{"prints null", `
program p
class Main {
  method main 0 0 {
    null
    prints   # trap
    halt
  }
}
entry Main.main`, false, "Main.main", 1, "null reference"},
	{"prints primitive", `
program p
class Main {
  method main 0 0 {
    iconst 4
    prints   # trap
    halt
  }
}
entry Main.main`, false, "Main.main", 1, "type error: expected reference, found primitive"},
}

// trapParityVM builds the VM a trap case drives, with obs observing it:
// Main.main's VM, or for a tool case a tool VM running Main.tool,
// attached to Main.main's VM after that one ran to completion.
func trapParityVM(t *testing.T, src string, tool bool, obs Observer) *VM {
	t.Helper()
	cfg := Config{MaxEvents: 100_000, HostRand: 3}
	if !tool {
		cfg.Observer = obs
	}
	m, err := New(asm(t, src), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !tool {
		return m
	}
	if err := m.Run(); err != nil {
		t.Fatalf("app run: %v", err)
	}
	p := asm(t, src)
	tm, ok := p.MethodByName("Main.tool")
	if !ok {
		t.Fatal("no Main.tool")
	}
	p.Entry = tm.ID
	toolVM, err := New(p, Config{Observer: obs})
	if err != nil {
		t.Fatal(err)
	}
	if err := toolVM.AttachLocalPeer(m); err != nil {
		t.Fatal(err)
	}
	return toolVM
}

// TestTrapParity pins every error arm of newarr, astore, instof, spawn,
// sleep, interrupt and prints: the trap's reason text, method, pc and
// source line (the line marked "# trap") must be the same whether the VM
// runs through Run or is stepped one instruction at a time, and either way
// every thread mirror must hold its thread's live values after it. For an
// application VM the two drivers must also leave byte-identical
// checkpoints behind the trap.
func TestTrapParity(t *testing.T) {
	for _, tc := range trapParityCases {
		line := 0
		for i, l := range strings.Split(tc.src, "\n") {
			if strings.Contains(l, "# trap") {
				line = i + 1
			}
		}
		var ckpts [][]byte
		for _, drive := range []struct {
			name string
			run  func(*VM) error
		}{{"run", (*VM).Run}, {"step", stepToEnd}} {
			t.Run(tc.name+"/"+drive.name, func(t *testing.T) {
				m := trapParityVM(t, tc.src, tc.tool, nil)
				err := drive.run(m)
				if s := staleMirror(m); s != "" {
					t.Errorf("after the trap: %s", s)
				}
				ve := innermostTrap(err)
				if ve == nil {
					t.Fatalf("err = %v, want a trap", err)
				}
				if got := ve.Reason.Error(); got != tc.reason {
					t.Errorf("reason = %q, want %q", got, tc.reason)
				}
				if ve.Method != tc.method || ve.PC != tc.pc || ve.Line != line {
					t.Errorf("trap at %s:%d line %d, want %s:%d line %d",
						ve.Method, ve.PC, ve.Line, tc.method, tc.pc, line)
				}
				ck, err := m.AppendCheckpoint(nil)
				if err != nil {
					t.Fatalf("checkpoint after the trap: %v", err)
				}
				ckpts = append(ckpts, ck)
			})
		}
		if !tc.tool && len(ckpts) == 2 && !bytes.Equal(ckpts[0], ckpts[1]) {
			t.Errorf("%s: Run and Step leave different checkpoints after the trap (%d vs %d bytes)",
				tc.name, len(ckpts[0]), len(ckpts[1]))
		}
	}
}

// TestFusedCallTrapParity: an iconst+call pair whose call cannot grow the
// stack traps in the pair's second component. Run must leave the frame
// pcs where a Step loop leaves them, so both drivers end on the same
// trap and byte-identical checkpoints.
func TestFusedCallTrapParity(t *testing.T) {
	src := `
program p
class Main {
  method f 1 1 {
    iconst 1
    call Main.f
    ret
  }
  method main 0 0 {
    iconst 1
    call Main.f
    halt
  }
}
entry Main.main`
	var ckpts [][]byte
	for _, run := range []func(*VM) error{(*VM).Run, stepToEnd} {
		m, err := New(asm(t, src), Config{HeapBytes: 1 << 14, MaxHeapBytes: 1 << 16})
		if err != nil {
			t.Fatal(err)
		}
		ve := innermostTrap(run(m))
		if ve == nil || ve.Method != "Main.f" || ve.PC != 1 {
			t.Fatalf("trap = %v, want one at Main.f:1", ve)
		}
		ck, err := m.AppendCheckpoint(nil)
		if err != nil {
			t.Fatal(err)
		}
		ckpts = append(ckpts, ck)
	}
	if !bytes.Equal(ckpts[0], ckpts[1]) {
		t.Fatal("Run and Step leave different checkpoints after the trap")
	}
}
