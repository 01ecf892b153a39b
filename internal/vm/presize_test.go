package vm

import (
	"fmt"
	"strings"
	"testing"

	"dejavu/internal/bytecode"
	"dejavu/internal/workloads"
)

// deepExprProgram builds a program whose helper pushes `width` operands
// before reducing them — its verified MaxStack is width — and calls it
// `calls` times from a loop in main.
func deepExprProgram(width, calls int) *bytecode.Program {
	var sb strings.Builder
	fmt.Fprintf(&sb, "program deepexpr\nclass Main {\n")
	fmt.Fprintf(&sb, "  method f 0 0 {\n")
	for i := 0; i < width; i++ {
		fmt.Fprintf(&sb, "    iconst 1\n")
	}
	for i := 1; i < width; i++ {
		fmt.Fprintf(&sb, "    add\n")
	}
	fmt.Fprintf(&sb, "    retv\n  }\n")
	fmt.Fprintf(&sb, "  method main 0 1 {\n")
	fmt.Fprintf(&sb, "    iconst %d\n    store 0\n", calls)
	fmt.Fprintf(&sb, "  loop:\n    load 0\n    jz out\n")
	fmt.Fprintf(&sb, "    call Main.f\n    pop\n")
	fmt.Fprintf(&sb, "    load 0\n    iconst 1\n    sub\n    store 0\n")
	fmt.Fprintf(&sb, "    jmp loop\n  out:\n    halt\n  }\n}\nentry Main.main\n")
	return bytecode.MustAssemble(sb.String())
}

// TestFramePresizing proves pushFrame consumes the verifier's MaxStack:
// a method whose operand stack is 200 deep reserves its whole frame in
// one step, far beyond a flat reservation (header + locals + 8), so its
// stack grows at most twice. Frame entry is the only place either
// driver grows a stack, so Run and a Step loop grow it equally often.
func TestFramePresizing(t *testing.T) {
	prog := deepExprProgram(200, 5)
	f, _ := prog.MethodByName("Main.f")
	grows := map[string]uint64{}
	for name, drive := range map[string]func(*VM) error{"run": (*VM).Run, "step": stepToEnd} {
		m, err := New(prog, Config{StackSlots: 16})
		if err != nil {
			t.Fatal(err)
		}
		if want := FrameHeader + f.NLocals + 200; m.frameNeed[f.ID] < want {
			t.Fatalf("frameNeed[Main.f] = %d, want at least %d: the verified depth reserved", m.frameNeed[f.ID], want)
		}
		if err := drive(m); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		grows[name] = m.StackGrows()
	}
	if grows["run"] != grows["step"] {
		t.Fatalf("stack grows differ between drivers: run %d, step %d", grows["run"], grows["step"])
	}
	if g := grows["run"]; g == 0 || g > 2 {
		t.Fatalf("pre-sized run grew the stack %d times; want 1 or 2 (one reservation per deep frame)", g)
	}
}

// TestFrameNeedMatchesFacts pins the frameNeed formula to the verifier's
// facts, so the reservation stays a deterministic function of the program.
func TestFrameNeedMatchesFacts(t *testing.T) {
	prog := workloads.Registry["prodcons"]()
	facts, err := VerifyProgram(prog)
	if err != nil {
		t.Fatal(err)
	}
	m, err := New(prog, Config{})
	if err != nil {
		t.Fatal(err)
	}
	for i, mm := range prog.Methods {
		want := FrameHeader + mm.NLocals + facts[i].MaxStack + opHeadroom
		if m.frameNeed[i] != want {
			t.Fatalf("%s: frameNeed=%d want %d", mm.FullName(), m.frameNeed[i], want)
		}
	}
}

// BenchmarkCallHeavy is the regression guard for frame pre-sizing: a
// call-dominated single-threaded loop where pushFrame cost is on the hot
// path (shallow frames, so the old flat reservation was already enough —
// pre-sizing must not make this slower).
func BenchmarkCallHeavy(b *testing.B) {
	prog := deepExprProgram(4, 20000)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		m, err := New(prog, Config{})
		if err != nil {
			b.Fatal(err)
		}
		if err := m.Run(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDeepOperandStack exercises the exact shape pre-sizing targets:
// frames whose operand stacks dwarf the fallback reservation.
func BenchmarkDeepOperandStack(b *testing.B) {
	prog := deepExprProgram(200, 100)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		m, err := New(prog, Config{StackSlots: 16})
		if err != nil {
			b.Fatal(err)
		}
		if err := m.Run(); err != nil {
			b.Fatal(err)
		}
	}
}
