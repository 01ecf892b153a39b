// Package cli holds helpers shared by the command-line tools: program
// loading from files or the workload registry, and engine construction
// from flags.
package cli

import (
	"errors"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"dejavu/internal/analysis"
	"dejavu/internal/bytecode"
	"dejavu/internal/core"
	"dejavu/internal/obs"
	"dejavu/internal/opt"
	"dejavu/internal/replaycheck"
	"dejavu/internal/trace"
	"dejavu/internal/vm"
	"dejavu/internal/workloads"
)

// LoadProgram resolves a program argument:
//
//	workload:<name>  — a built-in benchmark program
//	*.dvs            — assembler source
//	*.dva            — binary image
func LoadProgram(arg string) (*bytecode.Program, error) {
	if name, ok := strings.CutPrefix(arg, "workload:"); ok {
		f, ok := workloads.Registry[name]
		if !ok {
			return nil, fmt.Errorf("unknown workload %q (have: %s)", name, strings.Join(workloads.Names(), ", "))
		}
		return f(), nil
	}
	data, err := os.ReadFile(arg)
	if err != nil {
		return nil, err
	}
	switch {
	case strings.HasSuffix(arg, ".dvs"):
		return bytecode.Assemble(string(data))
	case strings.HasSuffix(arg, ".dva"):
		return bytecode.DecodeImage(data)
	default:
		// Try image first (magic check is cheap), then assembly.
		if p, err := bytecode.DecodeImage(data); err == nil {
			return p, nil
		}
		return bytecode.Assemble(string(data))
	}
}

// OptimizeProgram runs the certified bytecode optimizer over prog with
// the VM's native registry. The result is certify-or-refuse: a refused
// pipeline carries the pristine input in Result.Program along with the
// certifier's findings. reg may be nil.
func OptimizeProgram(prog *bytecode.Program, reg *obs.Registry) (*opt.Result, error) {
	return opt.Optimize(prog, opt.Options{Natives: vm.NativeSignature, Metrics: reg})
}

// LoadProgramOptimized resolves a program argument and, when optimize is
// set, runs the certified optimizer pipeline over it. The returned
// program is the certified optimized build, or the pristine input when
// the pipeline was refused (the opt.Result reports which — callers
// surface the findings and proceed unoptimized). The optimizer is
// deterministic, so every caller resolving the same spec with optimize
// set derives the identical program — which is what lets a trace
// recorded from an optimized build be replayed by re-deriving it.
func LoadProgramOptimized(arg string, optimize bool, reg *obs.Registry) (*bytecode.Program, *opt.Result, error) {
	prog, err := LoadProgram(arg)
	if err != nil {
		return nil, nil, err
	}
	if !optimize {
		return prog, nil, nil
	}
	res, err := OptimizeProgram(prog, reg)
	if err != nil {
		return nil, nil, err
	}
	return res.Program, res, nil
}

// EngineFlags describes how a tool wants its engine built.
type EngineFlags struct {
	Mode      core.Mode
	Seed      int64 // seeded preemption; <0 selects the real host timer
	Interval  time.Duration
	TraceIn   []byte
	TraceSink trace.Sink   // record to an external sink (streaming)
	TraceSrc  trace.Source // replay from an external source (streaming)
	Realtime  bool         // real wall clock instead of deterministic fake time
	Preflight bool         // run the static determinism analyses before recording

	// Sync selects the record-mode durability policy for sinks opened via
	// OpenTraceSink (the `dejavu record -sync` flag).
	Sync trace.SyncPolicy
	// PartialTrace marks TraceIn as a salvaged prefix (trace.RecoverStream
	// output without its end event): replay stops at the salvage point
	// with core.ErrPartialTrace instead of running past it.
	PartialTrace bool
	// Deadline arms the replay watchdog (`dejavu replay -deadline`): a
	// replay that stops consuming its trace for this long aborts with a
	// structured core.ErrStalled instead of hanging.
	Deadline time.Duration
	// Obs, when set, receives engine and trace metrics (`-metrics-out`).
	// Metrics live outside the logical clock, so a run with a registry
	// records and replays identically to one without.
	Obs *obs.Registry
}

// OpenTraceSink creates path and a streaming sink over it honoring the
// durability policy in f, storing the sink in f.TraceSink. The caller must
// Close the sink, then the file, and should check both errors — a sticky
// mid-record write failure surfaces at the sink's Close.
func (f *EngineFlags) OpenTraceSink(path string, progHash uint64) (*trace.StreamWriter, *os.File, error) {
	out, err := os.Create(path)
	if err != nil {
		return nil, nil, err
	}
	sink, err := trace.NewStreamWriter(out, progHash, trace.StreamOptions{Sync: f.Sync, Obs: f.Obs})
	if err != nil {
		out.Close()
		return nil, nil, err
	}
	f.TraceSink = sink
	return sink, out, nil
}

// JournalRecording summarizes a journal recording: what ran, and the
// identity of the execution (digest over steps, switches, and output) a
// later replay must reproduce bit-for-bit.
type JournalRecording struct {
	Events   uint64
	Switches uint64
	Digest   uint64
	Output   []byte
	// RunErr is the recording's run error. RecordJournalProgram treats any
	// run error as a failure and never sets it; RecordFlightProgram returns
	// faulting runs as data (the fault is what the flight recorder flushes
	// on), so callers inspect it.
	RunErr error
}

// RecordJournal resolves a program spec (workload:name, .dvs, or .dva),
// records it with a seeded preemptor, and rotates the trace into a
// segmented journal on fs so every segment boundary carries a durable
// checkpoint. rotateEvents <= 0 keeps the journal single-segment. It is
// the shared create path for tools that mint journal-backed sessions
// (dvserve's multi-tenant session manager, tests).
func RecordJournal(spec string, fs trace.FS, seed int64, rotateEvents int) (*JournalRecording, error) {
	prog, err := LoadProgram(spec)
	if err != nil {
		return nil, err
	}
	return RecordJournalProgram(prog, fs, seed, rotateEvents)
}

// RecordJournalProgram is RecordJournal over an already-resolved program
// — the path session managers take when the program went through the
// optimizer first, so the journal records the build that will replay it.
func RecordJournalProgram(prog *bytecode.Program, fs trace.FS, seed int64, rotateEvents int) (*JournalRecording, error) {
	return RecordJournalProgramOptions(prog, fs, replaycheck.Options{Seed: seed, RotateEvents: rotateEvents})
}

// RecordJournalProgramOptions is RecordJournalProgram with the full
// replaycheck option surface exposed — session managers use it to apply a
// journal byte quota (Options.MaxJournalBytes) at record time. A run error
// (including a quota refusal) is a failure: journal sessions replay
// complete recordings.
func RecordJournalProgramOptions(prog *bytecode.Program, fs trace.FS, o replaycheck.Options) (*JournalRecording, error) {
	res, err := replaycheck.RecordJournal(prog, fs, o)
	if err != nil {
		return nil, err
	}
	if res.RunErr != nil {
		return nil, fmt.Errorf("record %s: %w", prog.Name, res.RunErr)
	}
	return &JournalRecording{
		Events:   res.Events,
		Switches: res.Digest.Switches(),
		Digest:   res.Digest.Sum(),
		Output:   res.Output,
	}, nil
}

// RecordFlightProgram records prog through sink — a flight-recorder ring
// (trace.Sink, and vm.JournalSink for rotation) — with the same seeded
// defaults as RecordJournalProgram. Unlike the journal path, a faulting run
// is not a failure here: the fault is precisely what the flight recorder
// exists to capture, so the run error comes back in JournalRecording.RunErr
// and only setup errors are returned. The caller owns flushing the ring.
func RecordFlightProgram(prog *bytecode.Program, sink trace.Sink, seed int64) (*JournalRecording, error) {
	res, err := replaycheck.RecordSink(prog, sink, replaycheck.Options{Seed: seed})
	if err != nil {
		return nil, err
	}
	return &JournalRecording{
		Events:   res.Events,
		Switches: res.Digest.Switches(),
		Digest:   res.Digest.Sum(),
		Output:   res.Output,
		RunErr:   res.RunErr,
	}, nil
}

// Preflight runs the static determinism analyses (the `dejavu vet` pass)
// over prog and returns an error carrying the report when any finding
// would undermine record/replay fidelity.
func Preflight(prog *bytecode.Program) error {
	r := analysis.Analyze(prog, analysis.Config{
		Natives:        vm.NativeSignature,
		NativeCoverage: vm.NativeCoverage,
	})
	if !r.Clean() {
		return fmt.Errorf("preflight analysis found %d issue(s); fix them or record without -preflight:\n%s",
			len(r.Findings), r.Text())
	}
	return nil
}

// BuildEngine constructs an engine (and a stopper for any host timer).
func BuildEngine(prog *bytecode.Program, f EngineFlags) (*core.Engine, func(), error) {
	cfg := core.DefaultConfig(f.Mode)
	cfg.PreflightAnalysis = f.Preflight
	if f.Preflight && f.Mode == core.ModeRecord {
		if err := Preflight(prog); err != nil {
			return nil, nil, err
		}
	}
	cfg.ProgHash = vm.ProgramHash(prog)
	cfg.TraceIn = f.TraceIn
	cfg.TraceSink = f.TraceSink
	cfg.TraceSrc = f.TraceSrc
	cfg.PartialTrace = f.PartialTrace
	cfg.ProgressDeadline = f.Deadline
	cfg.Obs = f.Obs
	stop := func() {}
	if f.Realtime {
		cfg.Time = core.RealTime{}
	} else {
		cfg.Time = &core.FakeTime{Base: 1_000_000, Step: 3}
	}
	if f.Mode != core.ModeReplay {
		if f.Seed >= 0 {
			cfg.Preempt = core.NewSeededPreemptor(f.Seed, 5, 60)
		} else {
			interval := f.Interval
			if interval == 0 {
				interval = 2 * time.Millisecond
			}
			ht := core.StartHostTimer(interval)
			cfg.Preempt = ht
			stop = ht.Stop
		}
	}
	cfg.Input = os.Stdin
	eng, err := core.NewEngine(cfg)
	if err != nil {
		stop()
		if errors.Is(err, io.ErrUnexpectedEOF) || errors.Is(err, trace.ErrChecksum) {
			err = fmt.Errorf("%w (trace is torn or corrupt; `dejavu recover` salvages a replayable prefix of a streamed recording)", err)
		}
		return nil, nil, err
	}
	return eng, stop, nil
}
