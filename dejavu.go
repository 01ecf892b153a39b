// Package dejavu is DejaVu-Go: a deterministic replay platform for
// multithreaded programs, reproducing "A Perturbation-Free Replay Platform
// for Cross-Optimized Multithreaded Applications" (Choi et al., IPDPS
// 2001).
//
// The package is a facade over the implementation packages:
//
//   - bytecode: the VM's instruction set, assembler, and program images
//   - vm: the virtual machine (interpreter, green threads, copying GC)
//   - core: the DejaVu record/replay engine (Fig. 2 instrumentation,
//     symmetric side effects, non-deterministic event capture)
//   - trace: the two-stream trace format (switch stream + data stream)
//   - replaycheck: execution digests and record→replay verification
//   - remoteref/ptrace: perturbation-free remote reflection
//   - debugger/dbgproto: the replay debugger and its TCP front-end protocol
//   - baselines: Instant Replay, Recap read-logging, Russinovich–Cogswell
//     switch logging, and Igor checkpointing, for comparison
//   - workloads: the benchmark programs
//
// # Quick start
//
//	prog := dejavu.MustAssemble(src)           // or build with NewBuilder
//	rec, err := dejavu.Record(prog, dejavu.Options{Seed: 1})
//	rep, err := dejavu.Replay(prog, rec.Trace, dejavu.Options{})
//	// rec and rep executed identical event sequences.
//
// See examples/ for runnable programs and cmd/ for the CLI tools.
package dejavu

import (
	"dejavu/internal/bytecode"
	"dejavu/internal/core"
	"dejavu/internal/debugger"
	"dejavu/internal/replaycheck"
	"dejavu/internal/vm"
	"dejavu/internal/workloads"
)

// Program is a loadable program image.
type Program = bytecode.Program

// Builder constructs programs programmatically.
type Builder = bytecode.Builder

// Options configures a record or replay run (preemption seed, virtual
// time, heap size, symmetry ablations, ...).
type Options = replaycheck.Options

// Result captures one run: digest, output, trace, engine statistics.
type Result = replaycheck.Result

// VM is a virtual machine instance.
type VM = vm.VM

// VMConfig sizes and wires a VM directly (advanced use).
type VMConfig = vm.Config

// Engine is the DejaVu record/replay engine.
type Engine = core.Engine

// EngineConfig assembles an engine (advanced use; Record/Replay wrap it).
type EngineConfig = core.Config

// Debugger is the perturbation-free replay debugger.
type Debugger = debugger.Debugger

// NewBuilder starts a new program named name.
func NewBuilder(name string) *Builder { return bytecode.NewBuilder(name) }

// Assemble parses assembler text into a Program.
func Assemble(src string) (*Program, error) { return bytecode.Assemble(src) }

// MustAssemble is Assemble, panicking on error.
func MustAssemble(src string) *Program { return bytecode.MustAssemble(src) }

// Disassemble renders a Program as assembler text.
func Disassemble(p *Program) string { return bytecode.Disassemble(p) }

// EncodeImage serializes a Program to its binary image format.
func EncodeImage(p *Program) []byte { return bytecode.EncodeImage(p) }

// DecodeImage parses a binary program image.
func DecodeImage(data []byte) (*Program, error) { return bytecode.DecodeImage(data) }

// ProgramHash identifies a program image for trace matching.
func ProgramHash(p *Program) uint64 { return vm.ProgramHash(p) }

// Record executes prog in record mode, capturing every non-deterministic
// event into Result.Trace.
func Record(prog *Program, o Options) (*Result, error) { return replaycheck.Record(prog, o) }

// Replay executes prog against a recorded trace, reproducing the recorded
// execution exactly. trace may be either container: the flat DVT2 bytes
// Record returns, or a streamed DVS1 file (a default `dejavu record`, or a
// `dejavu recover -o` salvage), which is read whole and checksum-verified
// first.
func Replay(prog *Program, trace []byte, o Options) (*Result, error) {
	return replaycheck.Replay(prog, trace, o)
}

// CheckReplay records, replays, and verifies the two executions are
// identical (digest, output, final heap image, per-thread logical clocks).
func CheckReplay(prog *Program, o Options) (rec, rep *Result, err error) {
	return replaycheck.CheckReplay(prog, o)
}

// NewReplayVM builds a VM replaying the given trace, for step-wise control
// (e.g. under a Debugger).
func NewReplayVM(prog *Program, traceBytes []byte, cfg VMConfig) (*VM, error) {
	ecfg := core.DefaultConfig(core.ModeReplay)
	ecfg.ProgHash = vm.ProgramHash(prog)
	ecfg.TraceIn = traceBytes
	eng, err := core.NewEngine(ecfg)
	if err != nil {
		return nil, err
	}
	cfg.Engine = eng
	return vm.New(prog, cfg)
}

// NewDebugger wraps a VM (normally one from NewReplayVM) with breakpoints,
// stepping, remote-reflection inspection, and time travel.
func NewDebugger(m *VM) *Debugger { return debugger.New(m) }

// Workload returns a named benchmark program (see WorkloadNames).
func Workload(name string) (*Program, bool) {
	f, ok := workloads.Registry[name]
	if !ok {
		return nil, false
	}
	return f(), true
}

// WorkloadNames lists the built-in benchmark programs.
func WorkloadNames() []string { return workloads.Names() }
