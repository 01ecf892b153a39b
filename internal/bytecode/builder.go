package bytecode

import "fmt"

// Builder constructs Programs programmatically. Workloads and tests use it
// instead of writing assembly text. Label resolution and pool interning are
// handled automatically; Program() validates the result.
type Builder struct {
	p    *Program
	mbs  []*MethodBuilder
	errs []error
}

// NewBuilder starts a new program named name.
func NewBuilder(name string) *Builder {
	return &Builder{p: &Program{Name: name, Entry: -1}}
}

func (b *Builder) errf(format string, args ...any) {
	b.errs = append(b.errs, fmt.Errorf(format, args...))
}

// ClassBuilder adds fields and methods to one class.
type ClassBuilder struct {
	b *Builder
	c *Class
}

// Class declares (or returns the existing) class named name.
func (b *Builder) Class(name string) *ClassBuilder {
	for _, c := range b.p.Classes {
		if c.Name == name {
			return &ClassBuilder{b: b, c: c}
		}
	}
	c := &Class{ID: len(b.p.Classes), Name: name}
	b.p.Classes = append(b.p.Classes, c)
	return &ClassBuilder{b: b, c: c}
}

// Field declares an instance field and returns its slot.
func (cb *ClassBuilder) Field(name string, isRef bool) int {
	cb.c.Fields = append(cb.c.Fields, Field{Name: name, IsRef: isRef})
	return len(cb.c.Fields) - 1
}

// Static declares a static field and returns its slot.
func (cb *ClassBuilder) Static(name string, isRef bool) int {
	cb.c.Statics = append(cb.c.Statics, Field{Name: name, IsRef: isRef})
	return len(cb.c.Statics) - 1
}

// ID returns the class ID.
func (cb *ClassBuilder) ID() int { return cb.c.ID }

// MethodBuilder emits code for one method.
type MethodBuilder struct {
	b      *Builder
	m      *Method
	labels map[string]int
	fixups []fixup
	line   int32
}

type fixup struct {
	pc    int
	label string
}

// Method declares a method on the class with nargs argument slots and
// nlocals total local slots.
func (cb *ClassBuilder) Method(name string, nargs, nlocals int) *MethodBuilder {
	m := &Method{
		ID:      len(cb.b.p.Methods),
		Class:   cb.c,
		Name:    name,
		NArgs:   nargs,
		NLocals: nlocals,
	}
	cb.c.Methods = append(cb.c.Methods, m)
	cb.b.p.Methods = append(cb.b.p.Methods, m)
	mb := &MethodBuilder{b: cb.b, m: m, labels: map[string]int{}}
	cb.b.mbs = append(cb.b.mbs, mb)
	return mb
}

// ID returns the method's global ID.
func (mb *MethodBuilder) ID() int { return mb.m.ID }

// PC returns the pc of the next instruction to be emitted.
func (mb *MethodBuilder) PC() int { return len(mb.m.Code) }

// Line sets the source line recorded for subsequently emitted instructions.
func (mb *MethodBuilder) Line(n int) *MethodBuilder {
	mb.line = int32(n)
	return mb
}

// Emit appends a raw instruction. Operands beyond those the opcode takes
// must be omitted.
func (mb *MethodBuilder) Emit(op Opcode, operands ...int32) *MethodBuilder {
	in := Instr{Op: op}
	if len(operands) > 0 {
		in.A = operands[0]
	}
	if len(operands) > 1 {
		in.B = operands[1]
	}
	if len(operands) > 2 {
		mb.b.errf("%s: too many operands for %s", mb.m.FullName(), op)
	}
	mb.m.Code = append(mb.m.Code, in)
	mb.m.Lines = append(mb.m.Lines, mb.line)
	return mb
}

// Label defines name at the current pc.
func (mb *MethodBuilder) Label(name string) *MethodBuilder {
	if _, dup := mb.labels[name]; dup {
		mb.b.errf("%s: duplicate label %q", mb.m.FullName(), name)
	}
	mb.labels[name] = len(mb.m.Code)
	return mb
}

// Branch emits a jump opcode targeting label (resolved at Program()).
func (mb *MethodBuilder) Branch(op Opcode, label string) *MethodBuilder {
	mb.fixups = append(mb.fixups, fixup{pc: len(mb.m.Code), label: label})
	return mb.Emit(op, -1)
}

// Convenience emitters.

// Const pushes a 64-bit constant, choosing IConst or LConst automatically.
func (mb *MethodBuilder) Const(v int64) *MethodBuilder {
	if int64(int32(v)) == v {
		return mb.Emit(IConst, int32(v))
	}
	return mb.Emit(LConst, int32(mb.b.p.IntIndex(v)))
}

// Str pushes an interned string constant.
func (mb *MethodBuilder) Str(s string) *MethodBuilder {
	return mb.Emit(SConst, int32(mb.b.p.StringIndex(s)))
}

// CallM emits a static call to the method built by target.
func (mb *MethodBuilder) CallM(target *MethodBuilder) *MethodBuilder {
	return mb.Emit(Call, int32(target.m.ID), int32(target.m.NArgs))
}

// SpawnM emits a Spawn of the method built by target.
func (mb *MethodBuilder) SpawnM(target *MethodBuilder) *MethodBuilder {
	return mb.Emit(Spawn, int32(target.m.ID), int32(target.m.NArgs))
}

// NativeCall emits a native call by name with n args.
func (mb *MethodBuilder) NativeCall(name string, n int) *MethodBuilder {
	return mb.Emit(Native, int32(mb.b.p.StringIndex(name)), int32(n))
}

// GetField / PutField resolve "field" on class cb at build time.
func (mb *MethodBuilder) GetField(cb *ClassBuilder, field string) *MethodBuilder {
	slot, ok := cb.c.FieldSlot(field)
	if !ok {
		mb.b.errf("%s: no field %s.%s", mb.m.FullName(), cb.c.Name, field)
	}
	return mb.Emit(GetF, int32(slot))
}

func (mb *MethodBuilder) PutField(cb *ClassBuilder, field string) *MethodBuilder {
	slot, ok := cb.c.FieldSlot(field)
	if !ok {
		mb.b.errf("%s: no field %s.%s", mb.m.FullName(), cb.c.Name, field)
	}
	return mb.Emit(PutF, int32(slot))
}

// GetStatic / PutStatic resolve a static field on class cb.
func (mb *MethodBuilder) GetStatic(cb *ClassBuilder, field string) *MethodBuilder {
	slot, ok := cb.c.StaticSlot(field)
	if !ok {
		mb.b.errf("%s: no static %s.%s", mb.m.FullName(), cb.c.Name, field)
	}
	return mb.Emit(GetS, int32(cb.c.ID), int32(slot))
}

func (mb *MethodBuilder) PutStatic(cb *ClassBuilder, field string) *MethodBuilder {
	slot, ok := cb.c.StaticSlot(field)
	if !ok {
		mb.b.errf("%s: no static %s.%s", mb.m.FullName(), cb.c.Name, field)
	}
	return mb.Emit(PutS, int32(cb.c.ID), int32(slot))
}

// resolve patches label fixups.
func (mb *MethodBuilder) resolve() {
	for _, f := range mb.fixups {
		pc, ok := mb.labels[f.label]
		if !ok {
			mb.b.errf("%s: undefined label %q", mb.m.FullName(), f.label)
			continue
		}
		mb.m.Code[f.pc].A = int32(pc)
	}
	mb.fixups = nil
}

// Entry marks the method built by mb as the program entry point.
func (b *Builder) Entry(mb *MethodBuilder) { b.p.Entry = mb.m.ID }

// Program finalizes and validates the program.
func (b *Builder) Program() (*Program, error) {
	for _, mb := range b.mbs {
		mb.resolve()
	}
	if b.p.Entry < 0 {
		b.errf("no entry method set")
	}
	if len(b.errs) > 0 {
		return nil, b.errs[0]
	}
	b.p.link()
	if err := b.p.Validate(); err != nil {
		return nil, err
	}
	return b.p, nil
}

// MustProgram is Program but panics on error; for tests and workloads whose
// shape is fixed at compile time.
func (b *Builder) MustProgram() *Program {
	p, err := b.Program()
	if err != nil {
		panic(err)
	}
	return p
}
