package bytecode

// FoldBinop evaluates a OP b with the interpreter's exact semantics:
// int64 two's-complement wrap, shift counts masked to 6 bits, signed
// compares pushing 1/0. ok is false for Div and Mod, which can trap (a
// trap's position is replay-observable), and for every non-binop. The
// optimizer folds constants with it and the equivalence certifier
// resolves branch conditions with it, so both agree with the VM.
func FoldBinop(op Opcode, a, b int64) (r int64, ok bool) {
	switch op {
	case Add:
		return a + b, true
	case Sub:
		return a - b, true
	case Mul:
		return a * b, true
	case And:
		return a & b, true
	case Or:
		return a | b, true
	case Xor:
		return a ^ b, true
	case Shl:
		return a << uint(b&63), true
	case Shr:
		return a >> uint(b&63), true
	case CmpEq:
		return b2i(a == b), true
	case CmpNe:
		return b2i(a != b), true
	case CmpLt:
		return b2i(a < b), true
	case CmpLe:
		return b2i(a <= b), true
	case CmpGt:
		return b2i(a > b), true
	case CmpGe:
		return b2i(a >= b), true
	}
	return 0, false
}

func b2i(b bool) int64 {
	if b {
		return 1
	}
	return 0
}
