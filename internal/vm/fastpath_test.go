package vm

// Golden tests for the token-threaded interpreter: every fused
// superinstruction gets (a) a decode assertion proving the pair actually
// fuses (so the behavioral check cannot pass vacuously on the plain
// handlers), and (b) a Run-vs-Step run asserting the fused handler
// computes exactly what its two components compute when stepped one at
// a time over the unfused stream — same output, same final state.
// Fusion must also respect jump targets: a pc that any branch lands on
// stays the head of its own instruction.

import (
	"strings"
	"testing"

	"dejavu/internal/bytecode"
)

// decodeTokens returns every token appearing at a head slot across all
// methods of p, fused greedily as the fast path decodes it.
func decodeTokens(p *bytecode.Program) map[bytecode.Token]int {
	counts := map[bytecode.Token]int{}
	dp := bytecode.DecodeProgram(p, true)
	for _, dm := range dp.Methods {
		for pc := 0; pc < len(dm.Code); {
			d := &dm.Code[pc]
			counts[d.Tok]++
			if int(d.Next) > pc+1 {
				pc += 2
			} else {
				pc++
			}
		}
	}
	return counts
}

// runBoth runs prog through Run (fused stream) and through a Step loop
// (unfused stream) and asserts identical output and final state,
// returning the (shared) output.
func runBoth(t *testing.T, prog *bytecode.Program) string {
	t.Helper()
	fast := run(t, prog, Config{})
	stepped, err := New(prog, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if err := stepToEnd(stepped); err != nil {
		t.Fatalf("step: %v", err)
	}
	fo, so := string(fast.Output()), string(stepped.Output())
	if fo != so {
		t.Fatalf("output diverged:\nrun:  %q\nstep: %q", fo, so)
	}
	ff, lf := fast.FinalState(), stepped.FinalState()
	if len(ff) != len(lf) {
		t.Fatalf("final state shape diverged: %d vs %d entries", len(ff), len(lf))
	}
	for i := range ff {
		if ff[i] != lf[i] {
			t.Fatalf("final state diverged: %q vs %q", ff[i], lf[i])
		}
	}
	return fo
}

func TestFusedSuperinstructionsGolden(t *testing.T) {
	cases := []struct {
		name string
		tok  bytecode.Token
		src  string
		want string
	}{
		{"load-arith", bytecode.TokLoadArith, `
program f
class Main {
  method main 0 1 {
    iconst 7
    store 0
    iconst 5
    load 0
    add
    print
    halt
  }
}
entry Main.main
`, "12\n"},
		{"load-arith-sub-order", bytecode.TokLoadArith, `
program f
class Main {
  method main 0 1 {
    iconst 3
    store 0
    iconst 10
    load 0
    sub
    print
    halt
  }
}
entry Main.main
`, "7\n"},
		{"iconst-arith", bytecode.TokIConstArith, `
program f
class Main {
  method main 0 0 {
    iconst 10
    iconst 3
    sub
    print
    halt
  }
}
entry Main.main
`, "7\n"},
		{"iconst-arith-shift-mask", bytecode.TokIConstArith, `
program f
class Main {
  method main 0 0 {
    iconst 1
    iconst 65
    shl
    print
    iconst 1
    iconst 63
    shl
    print
    halt
  }
}
entry Main.main
`, "2\n-9223372036854775808\n"},
		{"load-load", bytecode.TokLoadLoad, `
program f
class Main {
  method main 0 2 {
    iconst 2
    store 0
    iconst 3
    store 1
    load 0
    load 1
    add
    print
    halt
  }
}
entry Main.main
`, "5\n"},
		{"load-iconst", bytecode.TokLoadIConst, `
program f
class Main {
  method main 0 1 {
    iconst 9
    store 0
    load 0
    iconst 4
    sub
    print
    halt
  }
}
entry Main.main
`, "5\n"},
		{"load-store", bytecode.TokLoadStore, `
program f
class Main {
  method main 0 2 {
    iconst 41
    store 0
    load 0
    store 1
    load 1
    iconst 1
    add
    print
    halt
  }
}
entry Main.main
`, "42\n"},
		{"cmp-jz", bytecode.TokCmpJz, `
program f
class Main {
  method main 0 0 {
    iconst 1
    iconst 2
    cmplt
    jz no
    iconst 100
    print
    halt
  no:
    iconst 200
    print
    halt
  }
}
entry Main.main
`, "100\n"},
		{"cmp-jz-taken", bytecode.TokCmpJz, `
program f
class Main {
  method main 0 0 {
    iconst 2
    iconst 1
    cmplt
    jz no
    iconst 100
    print
    halt
  no:
    iconst 200
    print
    halt
  }
}
entry Main.main
`, "200\n"},
		{"cmp-jnz-loop", bytecode.TokCmpJnz, `
program f
class Main {
  method main 0 2 {
    iconst 0
    store 0
  loop:
    load 1
    load 0
    add
    store 1
    load 0
    iconst 1
    add
    store 0
    load 0
    iconst 10
    cmplt
    jnz loop
    load 1
    print
    halt
  }
}
entry Main.main
`, "45\n"},
		{"iconst-call", bytecode.TokIConstCall, `
program f
class Main {
  method double 1 1 {
    load 0
    iconst 2
    mul
    retv
  }
  method main 0 0 {
    iconst 21
    call Main.double
    print
    halt
  }
}
entry Main.main
`, "42\n"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p := asm(t, tc.src)
			if n := decodeTokens(p)[tc.tok]; n == 0 {
				t.Fatalf("pair did not fuse: no %v token in decoded program", tc.tok)
			}
			if got := runBoth(t, p); got != tc.want {
				t.Fatalf("output = %q, want %q", got, tc.want)
			}
		})
	}
}

// TestFusionRespectsJumpTargets: a pc that is the target of any branch
// must stay a head — fusing it into the preceding instruction's shadow
// slot would skip it when the branch lands there.
func TestFusionRespectsJumpTargets(t *testing.T) {
	p := asm(t, `
program f
class Main {
  method main 0 0 {
    iconst 1
    jmp tgt
    iconst 3
    iconst 4
    cmplt
  tgt:
    jz zero
    iconst 100
    print
    halt
  zero:
    iconst 200
    print
    halt
  }
}
entry Main.main
`)
	// The (cmplt, jz) pair straddles the jump target: it must NOT fuse.
	dp := bytecode.DecodeProgram(p, true)
	code := dp.Methods[p.Entry].Code
	for pc := range code {
		if code[pc].Op == bytecode.CmpLt && code[pc].Tok != bytecode.Token(bytecode.CmpLt) {
			t.Fatalf("cmplt at pc %d fused (token %v) across a jump target", pc, code[pc].Tok)
		}
	}
	if got := runBoth(t, p); got != "100\n" {
		t.Fatalf("output = %q, want %q", got, "100\n")
	}
}

// TestHaltInNativeCallback pins the callNested fix: a Halt executed
// inside a native-driven callback cannot unwind the native frame, so the
// VM must reject it deterministically instead of running past the
// callback or leaving the stack imbalanced. Run and Step reach
// callNested through the same native handler, and must agree.
func TestHaltInNativeCallback(t *testing.T) {
	src := `
program haltcb
class Main {
  method handler 2 2 {
    halt
  }
  method main 0 1 {
    iconst 0
    store 0
  loop:
    sconst "Main.handler"
    iconst 8
    native "pollevents" 2
    pop
    load 0
    iconst 1
    add
    store 0
    load 0
    iconst 20
    cmplt
    jnz loop
    halt
  }
}
entry Main.main
`
	for _, drive := range []struct {
		name string
		run  func(*VM) error
	}{{"run", (*VM).Run}, {"step", stepToEnd}} {
		p := asm(t, src)
		m, err := New(p, Config{})
		if err != nil {
			t.Fatal(err)
		}
		runErr := drive.run(m)
		if runErr == nil {
			t.Fatalf("%s: no callback fired in 20 polls; cannot exercise halt-in-callback", drive.name)
		}
		if !strings.Contains(runErr.Error(), "halt inside a native callback") {
			t.Fatalf("%s: got %q, want halt-in-callback rejection", drive.name, runErr)
		}
	}
}

// TestEveryTokenHasAHandler: every valid opcode and every fused token is
// dispatched through exactly one fastTab entry, the one table both Run
// and Step use; init refuses to start with a gap.
func TestEveryTokenHasAHandler(t *testing.T) {
	if len(fastTab) != bytecode.NumTokens() {
		t.Fatalf("fastTab has %d entries, want %d tokens", len(fastTab), bytecode.NumTokens())
	}
	for tok := 0; tok < bytecode.NumTokens(); tok++ {
		if tok < bytecode.NumOpcodes() && !bytecode.Opcode(tok).Valid() {
			continue
		}
		if fastTab[tok] == nil {
			t.Errorf("token %d (%v) has no handler", tok, bytecode.Opcode(tok))
		}
	}
	gap := append([]fastFn(nil), fastTab...)
	gap[bytecode.PrintS], gap[bytecode.TokIConstCall] = nil, nil
	got := missingHandlers(gap)
	if len(got) != 2 || got[0] != int(bytecode.PrintS) || got[1] != int(bytecode.TokIConstCall) {
		t.Fatalf("missingHandlers with two gaps = %v, want [%d %d]", got, bytecode.PrintS, bytecode.TokIConstCall)
	}
}
