package vm

import (
	"strings"
	"testing"

	"dejavu/internal/bytecode"
	"dejavu/internal/core"
)

// run builds a VM over prog with an off-mode engine and runs to completion.
func run(t *testing.T, prog *bytecode.Program, cfg Config) *VM {
	t.Helper()
	m, err := New(prog, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Run(); err != nil {
		t.Fatalf("run: %v", err)
	}
	return m
}

func asm(t *testing.T, src string) *bytecode.Program {
	t.Helper()
	p, err := bytecode.Assemble(src)
	if err != nil {
		t.Fatalf("assemble: %v", err)
	}
	return p
}

func TestArithmeticAndControlFlow(t *testing.T) {
	p := asm(t, `
program arith
class Main {
  method main 0 2 {
    iconst 0
    store 0      # sum
    iconst 1
    store 1      # i
  loop:
    load 1
    iconst 10
    cmpgt
    jnz done
    load 0
    load 1
    add
    store 0
    load 1
    iconst 1
    add
    store 1
    jmp loop
  done:
    load 0
    print        # 55
    iconst 7
    iconst 3
    mod
    print        # 1
    iconst -8
    neg
    print        # 8
    halt
  }
}
entry Main.main
`)
	m := run(t, p, Config{})
	if got := string(m.Output()); got != "55\n1\n8\n" {
		t.Fatalf("output = %q", got)
	}
}

func TestCallsAndRecursion(t *testing.T) {
	p := asm(t, `
program fib
class Main {
  method fib 1 1 {
    load 0
    iconst 2
    cmplt
    jz rec
    load 0
    retv
  rec:
    load 0
    iconst 1
    sub
    call Main.fib
    load 0
    iconst 2
    sub
    call Main.fib
    add
    retv
  }
  method main 0 0 {
    iconst 15
    call Main.fib
    print
    halt
  }
}
entry Main.main
`)
	m := run(t, p, Config{})
	if got := string(m.Output()); got != "610\n" {
		t.Fatalf("fib(15) = %q", got)
	}
}

func TestDeepRecursionGrowsStack(t *testing.T) {
	p := asm(t, `
program deep
class Main {
  method down 1 1 {
    load 0
    jz out
    load 0
    iconst 1
    sub
    call Main.down
    retv
  out:
    iconst 42
    retv
  }
  method main 0 0 {
    iconst 2000
    call Main.down
    print
    halt
  }
}
entry Main.main
`)
	m := run(t, p, Config{StackSlots: 64})
	if got := string(m.Output()); got != "42\n" {
		t.Fatalf("output = %q", got)
	}
}

func TestObjectsFieldsAndVirtualCalls(t *testing.T) {
	p := asm(t, `
program objs
class Counter {
  field n
  method bump 1 1 {
    load 0
    load 0
    getf 0
    iconst 1
    add
    putf 0
    ret
  }
  method value 1 1 {
    load 0
    getf 0
    retv
  }
}
class Main {
  method main 0 1 {
    new Counter
    store 0
    load 0
    callv "bump" 1
    load 0
    callv "bump" 1
    load 0
    callv "value" 1
    print
    halt
  }
}
entry Main.main
`)
	m := run(t, p, Config{})
	if got := string(m.Output()); got != "2\n" {
		t.Fatalf("output = %q", got)
	}
}

func TestArraysAndStatics(t *testing.T) {
	p := asm(t, `
program arrs
class Main {
  static total
  method main 0 2 {
    iconst 5
    newarr int
    store 0
    iconst 0
    store 1
  fill:
    load 1
    iconst 5
    cmpge
    jnz sum
    load 0
    load 1
    load 1
    load 1
    mul
    astore
    load 1
    iconst 1
    add
    store 1
    jmp fill
  sum:
    iconst 0
    store 1
  sloop:
    load 1
    iconst 5
    cmpge
    jnz out
    puts Main.total # placeholder to be replaced
    jmp sloop
  out:
    gets Main.total
    print
    load 0
    arrlen
    print
    halt
  }
}
entry Main.main
`)
	// Patch the placeholder body: accumulate total += arr[i]; i++
	// (easier with the builder for the loop body).
	_ = p
	b := bytecode.NewBuilder("arrs2")
	main := b.Class("Main")
	main.Static("total", false)
	mb := main.Method("main", 0, 2)
	mb.Const(5).Emit(bytecode.NewArr, bytecode.KindInt64).Emit(bytecode.Store, 0)
	mb.Const(0).Emit(bytecode.Store, 1)
	mb.Label("fill")
	mb.Emit(bytecode.Load, 1).Const(5).Emit(bytecode.CmpGe).Branch(bytecode.Jnz, "sum")
	mb.Emit(bytecode.Load, 0).Emit(bytecode.Load, 1).Emit(bytecode.Load, 1).Emit(bytecode.Load, 1).
		Emit(bytecode.Mul).Emit(bytecode.AStore)
	mb.Emit(bytecode.Load, 1).Const(1).Emit(bytecode.Add).Emit(bytecode.Store, 1)
	mb.Branch(bytecode.Jmp, "fill")
	mb.Label("sum")
	mb.Const(0).Emit(bytecode.Store, 1)
	mb.Label("sloop")
	mb.Emit(bytecode.Load, 1).Const(5).Emit(bytecode.CmpGe).Branch(bytecode.Jnz, "out")
	mb.GetStatic(main, "total").Emit(bytecode.Load, 0).Emit(bytecode.Load, 1).Emit(bytecode.ALoad).
		Emit(bytecode.Add).PutStatic(main, "total")
	mb.Emit(bytecode.Load, 1).Const(1).Emit(bytecode.Add).Emit(bytecode.Store, 1)
	mb.Branch(bytecode.Jmp, "sloop")
	mb.Label("out")
	mb.GetStatic(main, "total").Emit(bytecode.Print)
	mb.Emit(bytecode.Load, 0).Emit(bytecode.ArrLen).Emit(bytecode.Print)
	mb.Emit(bytecode.Halt)
	b.Entry(mb)
	m := run(t, b.MustProgram(), Config{})
	if got := string(m.Output()); got != "30\n5\n" { // 0+1+4+9+16
		t.Fatalf("output = %q", got)
	}
}

func TestStringsAndByteArrays(t *testing.T) {
	p := asm(t, `
program strs
class Main {
  method main 0 1 {
    sconst "hello dejavu"
    store 0
    load 0
    prints
    load 0
    native "strlen" 1
    print
    sconst "12345"
    native "parseint" 1
    print
    halt
  }
}
entry Main.main
`)
	m := run(t, p, Config{})
	if got := string(m.Output()); got != "hello dejavu\n12\n12345\n" {
		t.Fatalf("output = %q", got)
	}
}

func TestGCDuringExecutionPreservesProgram(t *testing.T) {
	// Allocate garbage in a loop with a tiny heap: collections must run
	// and the live linked list must survive.
	p := asm(t, `
program churn
class Node {
  field val
  field next ref
}
class Main {
  method main 0 3 {
    null
    store 0      # head
    iconst 0
    store 1      # i
  loop:
    load 1
    iconst 200
    cmpge
    jnz check
    new Node
    store 2
    load 2
    load 1
    putf 0
    load 2
    load 0
    putf 1
    load 2
    store 0      # head = node
    iconst 30
    newarr int
    pop          # garbage
    load 1
    iconst 1
    add
    store 1
    jmp loop
  check:
    load 0
    getf 0
    print        # last value: 199
    native "gc" 0
    pop
    load 0
    getf 0
    print        # still 199 after forced GC
    load 0
    getf 1
    null
    cmpne
    assert       # next link survived too
    halt
  }
}
entry Main.main
`)
	m, err := New(p, Config{HeapBytes: 16 * 1024})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Run(); err != nil {
		t.Fatalf("run: %v", err)
	}
	if got := string(m.Output()); got != "199\n199\n" {
		t.Fatalf("output = %q", got)
	}
	if m.Heap().Collections == 0 {
		t.Fatal("expected at least one collection")
	}
}

func TestThreadsMonitorsAndJoinByWait(t *testing.T) {
	// Two workers increment a shared counter under a monitor; main waits
	// until both signal completion.
	p := asm(t, `
program counter
class Shared {
  field n
  field done
}
class Main {
  method worker 1 2 {
    iconst 0
    store 1
  loop:
    load 1
    iconst 1000
    cmpge
    jnz out
    load 0
    monenter
    load 0
    load 0
    getf 0
    iconst 1
    add
    putf 0
    load 0
    monexit
    load 1
    iconst 1
    add
    store 1
    jmp loop
  out:
    load 0
    monenter
    load 0
    load 0
    getf 1
    iconst 1
    add
    putf 1
    load 0
    notifyall
    load 0
    monexit
    ret
  }
  method main 0 1 {
    new Shared
    store 0
    load 0
    spawn Main.worker
    pop
    load 0
    spawn Main.worker
    pop
    load 0
    monenter
  waitloop:
    load 0
    getf 1
    iconst 2
    cmpge
    jnz goon
    load 0
    wait
    jmp waitloop
  goon:
    load 0
    monexit
    load 0
    getf 0
    print
    halt
  }
}
entry Main.main
`)
	cfg := core.DefaultConfig(core.ModeOff)
	cfg.Preempt = core.NewSeededPreemptor(99, 3, 30)
	eng, _ := core.NewEngine(cfg)
	m := run(t, p, Config{Engine: eng})
	if got := string(m.Output()); got != "2000\n" {
		t.Fatalf("output = %q (monitors failed to serialize)", got)
	}
}

func TestSleepWithFakeTime(t *testing.T) {
	p := asm(t, `
program sleepy
class Main {
  method napper 1 1 {
    load 0
    sleep
    load 0
    print
    ret
  }
  method main 0 0 {
    iconst 300
    spawn Main.napper
    pop
    iconst 100
    spawn Main.napper
    pop
    iconst 200
    spawn Main.napper
    pop
    ret
  }
}
entry Main.main
`)
	ecfg := core.DefaultConfig(core.ModeOff)
	ecfg.Time = &core.FakeTime{Base: 0, Step: 10}
	eng, _ := core.NewEngine(ecfg)
	m := run(t, p, Config{Engine: eng, IdleSleep: 1})
	// Wake order must follow deadlines: 100, 200, 300.
	if got := string(m.Output()); got != "100\n200\n300\n" {
		t.Fatalf("output = %q", got)
	}
}

func TestDeadlockDetected(t *testing.T) {
	p := asm(t, `
program dead
class Main {
  method main 0 1 {
    new Main
    store 0
    load 0
    monenter
    load 0
    wait        # nobody will ever notify
    halt
  }
}
entry Main.main
`)
	m, err := New(p, Config{})
	if err != nil {
		t.Fatal(err)
	}
	err = m.Run()
	if err == nil || !strings.Contains(err.Error(), "deadlock") {
		t.Fatalf("expected deadlock error, got %v", err)
	}
}

func TestTrapsCarryContext(t *testing.T) {
	cases := []struct{ name, src, want string }{
		{"div by zero", `
program z
class Main {
  method main 0 0 {
    iconst 1
    iconst 0
    div
    halt
  }
}
entry Main.main`, "division by zero"},
		{"null deref", `
program n
class P { field x
  method id 1 1 { load 0 retv }
}
class Main {
  method main 0 0 {
    null
    getf 0
    halt
  }
}
entry Main.main`, "null reference"},
		{"bounds", `
program b
class Main {
  method main 0 1 {
    iconst 2
    newarr int
    store 0
    load 0
    iconst 5
    aload
    halt
  }
}
entry Main.main`, "out of bounds"},
		{"assert", `
program a
class Main {
  method main 0 0 {
    iconst 0
    assert
    halt
  }
}
entry Main.main`, "assertion failed"},
	}
	for _, tc := range cases {
		p := asm(t, tc.src)
		m, err := New(p, Config{})
		if err != nil {
			t.Fatal(err)
		}
		err = m.Run()
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want %q", tc.name, err, tc.want)
		}
		var vmErr *VMError
		if !strings.Contains(err.Error(), "Main.main") {
			t.Errorf("%s: error lacks method context: %v", tc.name, err)
		}
		_ = vmErr
	}
}

func TestEventBudget(t *testing.T) {
	p := asm(t, `
program spin
class Main {
  method main 0 0 {
  loop:
    jmp loop
  }
}
entry Main.main
`)
	m, err := New(p, Config{MaxEvents: 1000})
	if err != nil {
		t.Fatal(err)
	}
	err = m.Run()
	if err != ErrEventBudget {
		t.Fatalf("err = %v", err)
	}
	if m.Events() > 1001 {
		t.Fatalf("ran %d events past budget", m.Events())
	}
}

func TestIdhashStableAcrossGC(t *testing.T) {
	// idhash is the address; a GC can move the object, but a program that
	// doesn't GC between two hashes of the same object sees equal values.
	p := asm(t, `
program hash
class Main {
  method main 0 1 {
    new Main
    store 0
    load 0
    native "idhash" 1
    load 0
    native "idhash" 1
    cmpeq
    assert
    halt
  }
}
entry Main.main
`)
	run(t, p, Config{})
}

func TestPollEventsCallbacks(t *testing.T) {
	p := asm(t, `
program events
class Main {
  static count
  method onEvent 2 2 {
    gets Main.count
    iconst 1
    add
    puts Main.count
    load 1
    print
    ret
  }
  method main 0 0 {
    sconst "Main.onEvent"
    iconst 5
    native "pollevents" 2
    print
    gets Main.count
    print
    halt
  }
}
entry Main.main
`)
	m := run(t, p, Config{HostRand: 7})
	out := string(m.Output())
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) < 2 {
		t.Fatalf("output = %q", out)
	}
	// Last two lines: event count from native, then the counter — equal.
	if lines[len(lines)-1] != lines[len(lines)-2] {
		t.Fatalf("callback count mismatch: %q", out)
	}
}

func TestSpawnArgumentsSurviveGC(t *testing.T) {
	// Spawn a thread with a ref argument while heap pressure forces
	// collections; the argument must arrive intact.
	p := asm(t, `
program spawnref
class Box { field v }
class Main {
  method reader 1 1 {
    load 0
    getf 0
    print
    ret
  }
  method main 0 1 {
    new Box
    store 0
    load 0
    iconst 777
    putf 0
    load 0
    spawn Main.reader
    pop
    ret
  }
}
entry Main.main
`)
	m := run(t, p, Config{HeapBytes: 8 * 1024})
	if got := string(m.Output()); got != "777\n" {
		t.Fatalf("output = %q", got)
	}
}

func TestOutputEcho(t *testing.T) {
	p := asm(t, `
program echo
class Main {
  method main 0 0 {
    iconst 5
    print
    halt
  }
}
entry Main.main
`)
	var sb strings.Builder
	run(t, p, Config{Stdout: &sb})
	if sb.String() != "5\n" {
		t.Fatalf("echo = %q", sb.String())
	}
}

// TestVerifyAtLoad: a program that fails verification never loads; the
// refusal names the method, the pc and the verifier's reason.
func TestVerifyAtLoad(t *testing.T) {
	bad := asm(t, `
program bad
class Main {
  method main 0 0 {
    add
    halt
  }
}
entry Main.main
`)
	checkRefused(t, bad, "Main.main", 0)
	if _, err := New(bad, Config{}); err == nil || !strings.Contains(err.Error(), "underflow") {
		t.Fatalf("verify-at-load missed: %v", err)
	}
}

func TestHeapLimitEnforced(t *testing.T) {
	p := asm(t, `
program hog
class Main {
  method main 0 1 {
  loop:
    iconst 4096
    newarr int
    store 0
    jmp loop
  }
}
entry Main.main
`)
	m, err := New(p, Config{HeapBytes: 8 * 1024, MaxHeapBytes: 64 * 1024})
	if err != nil {
		t.Fatal(err)
	}
	err = m.Run()
	if err == nil || !strings.Contains(err.Error(), "heap limit") {
		t.Fatalf("expected heap limit error, got %v", err)
	}
}
