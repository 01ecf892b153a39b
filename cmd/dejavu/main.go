// Command dejavu runs, records, and replays programs on the DejaVu-Go VM.
//
//	dejavu run [flags] <prog>          execute (no recording)
//	dejavu record [flags] <prog>       execute and write a trace
//	dejavu replay [flags] <prog>       re-execute a recorded trace
//	dejavu recover [flags] <trace>     salvage a torn or corrupt recording
//	dejavu vet [flags] <prog|all>      static replay-determinism analyses
//	dejavu opt [flags] <prog>          certified replay-safe bytecode optimizer
//	dejavu asm <in.dvs> <out.dva>      assemble to a binary image
//	dejavu disasm <in.dva>             print assembler text
//	dejavu workloads                   list built-in benchmark programs
//	dejavu info <prog>                 show program structure
//
// <prog> is a .dvs assembly file, a .dva image, or workload:<name>.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"dejavu/internal/bytecode"
	"dejavu/internal/cli"
	"dejavu/internal/core"
	"dejavu/internal/flightrec"
	"dejavu/internal/minimize"
	"dejavu/internal/obs"
	"dejavu/internal/opt"
	"dejavu/internal/replaycheck"
	"dejavu/internal/tools"
	"dejavu/internal/trace"
	"dejavu/internal/vm"
	"dejavu/internal/workloads"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	var err error
	switch os.Args[1] {
	case "run":
		err = cmdRun(os.Args[2:], core.ModeOff)
	case "record":
		err = cmdRun(os.Args[2:], core.ModeRecord)
	case "replay":
		err = cmdReplay(os.Args[2:])
	case "recover":
		err = cmdRecover(os.Args[2:])
	case "asm":
		err = cmdAsm(os.Args[2:])
	case "disasm":
		err = cmdDisasm(os.Args[2:])
	case "verify":
		err = cmdVerify(os.Args[2:])
	case "vet":
		// vet owns its exit-code discipline: 0 clean, 1 findings, 2 usage.
		os.Exit(cmdVet(os.Args[2:]))
	case "opt":
		// opt likewise: 0 certified, 1 refused, 2 usage.
		os.Exit(cmdOpt(os.Args[2:]))
	case "minimize":
		err = cmdMinimize(os.Args[2:])
	case "traceinfo":
		err = cmdTraceInfo(os.Args[2:])
	case "workloads":
		for _, n := range workloads.Names() {
			fmt.Println(n)
		}
	case "info":
		err = cmdInfo(os.Args[2:])
	default:
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "dejavu:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage: dejavu <run|record|replay|recover|minimize|vet|opt|asm|disasm|verify|traceinfo|workloads|info> [flags] args...
run "dejavu <cmd> -h" for command flags`)
}

func cmdRun(args []string, mode core.Mode) error {
	fs := flag.NewFlagSet("run", flag.ExitOnError)
	seed := fs.Int64("seed", -1, "seeded preemption (-1 = real host timer)")
	realtime := fs.Bool("realtime", false, "use the real wall clock")
	heapKB := fs.Int("heap", 1024, "initial semispace KiB")
	traceOut := fs.String("o", "trace.dvt", "trace output file, or journal directory with -segment-* (record mode)")
	flat := fs.Bool("flat", false, "buffer the whole trace in memory and write the flat container (record mode)")
	segEvents := fs.Int("segment-events", 0, "rotate the trace into a segmented journal after this many logged events; -o names the journal directory (record mode)")
	segBytes := fs.Int64("segment-bytes", 0, "rotate the trace into a segmented journal after a segment reaches this size; -o names the journal directory (record mode)")
	syncMode := fs.String("sync", "none", "trace durability: none (page cache), chunk (fsync per chunk), event (fsync per event)")
	stats := fs.Bool("stats", false, "print execution statistics")
	preflight := fs.Bool("preflight", false, "run the static determinism analyses before recording; refuse to record on findings")
	optimize := fs.Bool("optimize", false, "run the certified bytecode optimizer before execution; a refused pipeline runs the input unoptimized")
	metricsOut := fs.String("metrics-out", "", "write engine/trace metrics as JSON to this file after the run")
	flight := fs.Bool("flight", false, "always-on flight recorder: record into a bounded in-memory ring; a fault flushes the recent window as a journal to -o")
	flightEvents := fs.Int("flight-events", 0, "flight window size in logged events (default 4096)")
	flightBytes := fs.Int64("flight-bytes", 0, "flight window size in bytes (overrides -flight-events)")
	raceFault := fs.Bool("race", false, "with -flight: run the lockset race detector and treat a hit as a flush-triggering fault")
	fs.Parse(args)
	if fs.NArg() != 1 {
		return fmt.Errorf("need exactly one program argument")
	}
	if *flight {
		// The flight ring rides the record pipeline, whatever subcommand
		// asked for it: `dejavu run -flight` is a normal run with the
		// recorder always on.
		mode = core.ModeRecord
		if *segEvents > 0 || *segBytes > 0 || *flat {
			return fmt.Errorf("-flight is exclusive of -segment-* and -flat")
		}
	} else if *raceFault {
		return fmt.Errorf("-race needs -flight (use `dejavu replay -race` to analyze a trace)")
	}
	reg := metricsRegistry(*metricsOut)
	prog, optRes, err := cli.LoadProgramOptimized(fs.Arg(0), *optimize, reg)
	if err != nil {
		return err
	}
	reportOptimize(optRes)
	flags := cli.EngineFlags{Mode: mode, Seed: *seed, Realtime: *realtime, Preflight: *preflight}
	flags.Obs = reg
	if flags.Sync, err = trace.ParseSyncPolicy(*syncMode); err != nil {
		return err
	}
	if *preflight && mode == core.ModeRecord {
		// Gate before the trace file is created, so a refused recording
		// leaves nothing behind (BuildEngine re-checks for API callers).
		if err := cli.Preflight(prog); err != nil {
			return err
		}
	}
	// A program that fails verification is refused here, before any
	// output exists.
	img, err := vm.NewImage(prog)
	if err != nil {
		return err
	}
	// Record mode streams chunks to the output file as it runs, so the
	// trace never lives in memory; -flat restores the old buffered path and
	// -segment-* rotates the stream into a checkpointed journal directory.
	var sink *trace.StreamWriter
	var out *os.File
	var journal *trace.SegmentWriter
	var ring *flightrec.Ring
	if *flight {
		ring, err = flightrec.NewRing(img.Hash(), flightrec.Options{
			WindowEvents: *flightEvents,
			WindowBytes:  *flightBytes,
			Obs:          reg,
		})
		if err != nil {
			return err
		}
		flags.TraceSink = ring
	} else if mode == core.ModeRecord && (*segEvents > 0 || *segBytes > 0) {
		dfs, err := trace.NewDirFS(*traceOut)
		if err != nil {
			return err
		}
		journal, err = trace.NewSegmentWriter(dfs, img.Hash(), trace.SegmentOptions{
			StreamOptions: trace.StreamOptions{Sync: flags.Sync, Obs: flags.Obs},
			RotateEvents:  *segEvents,
			RotateBytes:   *segBytes,
		})
		if err != nil {
			return err
		}
		flags.TraceSink = journal
	} else if mode == core.ModeRecord && !*flat {
		sink, out, err = flags.OpenTraceSink(*traceOut, img.Hash())
		if err != nil {
			return err
		}
		defer out.Close()
	}
	eng, stop, err := cli.BuildEngine(img, flags)
	if err != nil {
		return err
	}
	defer stop()
	vcfg := vm.Config{Engine: eng, Stdout: os.Stdout, HeapBytes: *heapKB * 1024}
	if journal != nil {
		vcfg.Journal = journal // a nil *SegmentWriter must not become a non-nil interface
	}
	var rd *tools.RaceDetector
	if ring != nil {
		vcfg.Journal = ring
		if *raceFault {
			rd = tools.NewRaceDetector()
			// Freeze at the instant of detection so the window still holds
			// the racing accesses when the flush happens after the run.
			rd.OnRace = func(tools.Race) { ring.Freeze() }
			vcfg.MemHook = rd
			vcfg.SyncHook = rd
		}
	}
	m, err := vm.Load(img, vcfg)
	if err != nil {
		return err
	}
	runErr := m.Run()
	if mode == core.ModeRecord {
		traceBytes := eng.End()
		switch {
		case ring != nil:
			class := flightrec.Classify(runErr)
			if rd != nil && len(rd.Races()) > 0 {
				class = "race"
				for _, rc := range rd.Races() {
					fmt.Fprintf(os.Stderr, "race: obj %d slot %d threads %v (%s)\n", rc.Obj, rc.Slot, rc.Threads, rc.Detail)
				}
			}
			if class == "" {
				fmt.Fprintf(os.Stderr, "flight: clean exit; window discarded (%d bytes seen)\n",
					ring.Stats().TotalBytes)
			} else {
				info, ferr := ring.Flush(*traceOut, class)
				if ferr != nil {
					return fmt.Errorf("flight flush after %s fault: %w (run error: %v)", class, ferr, runErr)
				}
				fmt.Fprintf(os.Stderr, "flight: %s fault; flushed %d event(s) in %d segment(s) from event %d -> %s/\n",
					class, info.Events, info.Segments, info.Origin, *traceOut)
				if info.Origin > 0 {
					fmt.Fprintf(os.Stderr, "flight: replay with `dejavu replay -t %s %s`\n", *traceOut, fs.Arg(0))
				}
			}
		case journal != nil:
			if err := journal.Close(); err != nil {
				return err
			}
			man := journal.ManifestSnapshot()
			fmt.Fprintf(os.Stderr, "journal: %d bytes in %d segment(s), %d checkpoint(s) -> %s/\n",
				journal.Stats().TotalBytes, len(man.Segments), len(man.Checkpoints), *traceOut)
		case sink != nil:
			if err := sink.Close(); err != nil {
				return err
			}
			if err := out.Close(); err != nil {
				return err
			}
			fmt.Fprintf(os.Stderr, "trace: %d bytes (streamed) -> %s\n", sink.Stats().TotalBytes, *traceOut)
		default:
			if err := os.WriteFile(*traceOut, traceBytes, 0o644); err != nil {
				return err
			}
			fmt.Fprintf(os.Stderr, "trace: %d bytes -> %s\n", len(traceBytes), *traceOut)
		}
	}
	if *stats {
		printStats(m, eng)
	}
	if err := dumpMetrics(flags.Obs, *metricsOut, m); err != nil {
		return err
	}
	return runErr
}

func cmdReplay(args []string) error {
	fs := flag.NewFlagSet("replay", flag.ExitOnError)
	traceIn := fs.String("t", "trace.dvt", "trace input file, or a journal directory")
	heapKB := fs.Int("heap", 1024, "initial semispace KiB")
	stats := fs.Bool("stats", false, "print execution statistics")
	race := fs.Bool("race", false, "run the lockset race detector over the replay")
	profile := fs.Bool("profile", false, "print a replay profile (hot methods, threads, opcodes)")
	contention := fs.Bool("contention", false, "print monitor acquisition counts")
	partial := fs.Bool("partial", false, "the trace is a salvaged prefix (e.g. from `dejavu recover -o`): stop cleanly at the salvage point instead of failing")
	fromEvent := fs.Uint64("from-event", 0, "seed replay from the nearest durable checkpoint at or before this instruction count (journal input only)")
	deadline := fs.Duration("deadline", 0, "abort with a stall report if replay stops consuming the trace for this long (0 = no watchdog)")
	optimize := fs.Bool("optimize", false, "re-derive the certified optimized program the trace was recorded from (the optimizer is deterministic)")
	metricsOut := fs.String("metrics-out", "", "write engine/trace metrics as JSON to this file after the run")
	fs.Parse(args)
	if fs.NArg() != 1 {
		return fmt.Errorf("need exactly one program argument")
	}
	reg := metricsRegistry(*metricsOut)
	prog, optRes, err := cli.LoadProgramOptimized(fs.Arg(0), *optimize, reg)
	if err != nil {
		return err
	}
	reportOptimize(optRes)
	img, err := vm.NewImage(prog)
	if err != nil {
		return err
	}
	flags := cli.EngineFlags{Mode: core.ModeReplay, PartialTrace: *partial, Deadline: *deadline}
	flags.Obs = reg
	var j *trace.Journal
	var r *trace.Reader // the loaded journal, for a seeded replay
	if fi, err := os.Stat(*traceIn); err == nil && fi.IsDir() {
		// A directory is a segmented journal: replay its segment chain, and
		// with -from-event start from the best durable checkpoint.
		dfs, err := trace.NewDirFS(*traceIn)
		if err != nil {
			return err
		}
		if j, err = trace.OpenJournal(dfs); err != nil {
			return err
		}
		if h := img.Hash(); j.ProgHash() != h {
			return fmt.Errorf("journal %s was recorded from program %x, not %x", *traceIn, j.ProgHash(), h)
		}
		if j.Origin() > 0 {
			// A flight window starts mid-run: replay starts from its origin
			// checkpoint (replaycheck.RestoreDurable), never from zero.
			fmt.Fprintf(os.Stderr, "flight journal: %s\n", j)
		}
		if !j.Complete() {
			flags.PartialTrace = true
			fmt.Fprintf(os.Stderr, "incomplete journal (crash-cut recording): %s\n", j)
		}
		src, err := j.Source()
		if err != nil {
			return err
		}
		// From zero, replay streams the journal; a seeded replay loads it
		// whole, to restore a checkpoint at its segment's seam.
		flags.TraceSrc = src
		if *fromEvent > 0 || j.Origin() > 0 {
			if r, err = src.Load(); err != nil {
				return err
			}
			flags.TraceSrc = r
		}
	} else {
		if *fromEvent > 0 {
			return fmt.Errorf("-from-event needs a journal directory; %s is a flat trace file", *traceIn)
		}
		f, err := os.Open(*traceIn)
		if err != nil {
			return err
		}
		defer f.Close()
		// Sniff the container: streamed recordings replay incrementally,
		// flat ones load into memory as before.
		br := bufio.NewReader(f)
		magic, _ := br.Peek(4)
		if trace.IsStream(magic) {
			src, err := trace.NewStreamReader(br, img.Hash())
			if err != nil {
				return err
			}
			src.Instrument(flags.Obs)
			flags.TraceSrc = src
		} else {
			traceBytes, err := io.ReadAll(br)
			if err != nil {
				return err
			}
			flags.TraceIn = traceBytes
		}
	}
	cfg := vm.Config{Stdout: os.Stdout, HeapBytes: *heapKB * 1024}
	var rd *tools.RaceDetector
	var prof *tools.Profiler
	var cont *tools.Contention
	if *race {
		rd = tools.NewRaceDetector()
		cfg.MemHook = rd
	}
	if *profile {
		prof = tools.NewProfiler(prog)
		cfg.Observer = prof
	}
	if *contention {
		cont = tools.NewContention()
	}
	if rd != nil || cont != nil {
		multi := &tools.Multi{}
		if rd != nil {
			multi.Sync = append(multi.Sync, rd)
		}
		if cont != nil {
			multi.Sync = append(multi.Sync, cont)
		}
		cfg.SyncHook = multi
	}
	eng, stop, err := cli.BuildEngine(img, flags)
	if err != nil {
		return err
	}
	defer stop()
	cfg.Engine = eng
	m, err := vm.Load(img, cfg)
	if err != nil {
		return err
	}
	if r != nil {
		ck, err := replaycheck.RestoreDurable(m, j, r, 0, *fromEvent, func(err error) {
			// A torn file, a misfit, or one the VM refuses (a different
			// -heap, an older format): an earlier checkpoint, or zero, is
			// tried.
			hint := ""
			if errors.Is(err, vm.ErrCheckpointRefused) {
				hint = " (check -heap)"
			}
			fmt.Fprintf(os.Stderr, "%v%s; falling back to an earlier seed\n", err, hint)
		})
		if err != nil {
			return err
		}
		if ck != nil {
			fmt.Fprintf(os.Stderr, "seeded from checkpoint %d at %d events\n", ck.Index, ck.VMEvents)
		}
	}
	runErr := m.Run()
	if runErr != nil && errors.Is(runErr, io.ErrUnexpectedEOF) {
		if *partial {
			// Stopping at the end of a salvaged prefix is the expected
			// outcome of replaying a recovered crash, not a failure.
			n, _ := eng.ReplayedEvents()
			fmt.Fprintf(os.Stderr, "partial trace: replayed %d events, stopped at the salvage point\n", n)
			runErr = nil
		} else {
			runErr = fmt.Errorf("%w (trace is torn; run `dejavu recover` to salvage a replayable prefix, or replay a salvaged trace with -partial)", runErr)
		}
	}
	if *stats {
		printStats(m, eng)
	}
	if rd != nil {
		fmt.Fprint(os.Stderr, rd.Report())
	}
	if prof != nil {
		fmt.Fprint(os.Stderr, prof.Report(10))
	}
	if cont != nil {
		fmt.Fprint(os.Stderr, cont.Report(5))
	}
	if err := dumpMetrics(flags.Obs, *metricsOut, m); err != nil {
		return err
	}
	return runErr
}

// cmdMinimize delta-debugs a recorded preemption schedule down to a
// minimal switch set that still reproduces the recording's fault.
func cmdMinimize(args []string) error {
	fs := flag.NewFlagSet("minimize", flag.ExitOnError)
	traceIn := fs.String("t", "trace.dvt", "trace input: trace file or journal directory (must be a from-start recording)")
	heapKB := fs.Int("heap", 1024, "initial semispace KiB (must match the recording)")
	maxEvents := fs.Uint64("max-events", 0, "event budget the recording ran under (0 = default)")
	deadline := fs.Duration("deadline", 2*time.Second, "stall watchdog for candidate replays")
	maxCand := fs.Int("max-candidates", 0, "cap on candidate schedules tried (0 = unlimited)")
	outTrace := fs.String("o", "", "write the reduced trace here (flat container)")
	reportOut := fs.String("report", "", "write the JSON report here (default stdout)")
	verbose := fs.Bool("v", false, "log search progress")
	fs.Parse(args)
	if fs.NArg() != 1 {
		return fmt.Errorf("need exactly one program argument")
	}
	prog, _, err := cli.LoadProgramOptimized(fs.Arg(0), false, nil)
	if err != nil {
		return err
	}
	var src *trace.Reader
	if fi, err := os.Stat(*traceIn); err == nil && fi.IsDir() {
		dfs, err := trace.NewDirFS(*traceIn)
		if err != nil {
			return err
		}
		j, err := trace.OpenJournal(dfs)
		if err != nil {
			return err
		}
		if h := vm.ProgramHash(prog); j.ProgHash() != h {
			return fmt.Errorf("journal %s was recorded from program %x, not %x", *traceIn, j.ProgHash(), h)
		}
		if org := j.Origin(); org > 0 {
			return fmt.Errorf("%s is a flight window starting at event %d; minimize needs a from-start recording (its switch positions are meaningless without the prefix)", *traceIn, org)
		}
		sr, err := j.Source()
		if err != nil {
			return err
		}
		if src, err = sr.Load(); err != nil {
			return err
		}
	} else {
		raw, err := os.ReadFile(*traceIn)
		if err != nil {
			return err
		}
		if src, err = trace.NewReader(raw, vm.ProgramHash(prog)); err != nil {
			return err
		}
	}
	o := minimize.Options{
		Record:        replaycheck.Options{HeapBytes: *heapKB * 1024, MaxEvents: *maxEvents},
		Deadline:      *deadline,
		MaxCandidates: *maxCand,
	}
	if *verbose {
		o.Log = func(format string, a ...any) { fmt.Fprintf(os.Stderr, format+"\n", a...) }
	}
	res, err := minimize.Run(prog, src, o)
	if err != nil {
		return err
	}
	rep := res.Report
	fmt.Fprintf(os.Stderr, "minimize: %s fault reproduced with %d of %d switch(es) (%.0f%% reduction, %d candidates)\n",
		rep.Fault, rep.KeptSwitches, rep.OriginalSwitches, rep.ReductionPct, rep.Candidates)
	buf, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	buf = append(buf, '\n')
	if *reportOut != "" {
		if err := os.WriteFile(*reportOut, buf, 0o644); err != nil {
			return err
		}
	} else {
		os.Stdout.Write(buf)
	}
	if *outTrace != "" {
		if err := os.WriteFile(*outTrace, res.Trace, 0o644); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "minimize: reduced trace (%d bytes) -> %s\n", len(res.Trace), *outTrace)
	}
	return nil
}

// reportOptimize surfaces a -optimize outcome on stderr: a certified
// pipeline notes the shrink; a refused one prints the certifier's
// findings — the run proceeds on the unoptimized input, which is what
// res.Program already holds.
func reportOptimize(res *opt.Result) {
	if res == nil {
		return
	}
	if res.Certified {
		fmt.Fprintf(os.Stderr, "opt: certified, %d -> %d instructions\n", res.InstrsBefore, res.InstrsAfter)
		return
	}
	fmt.Fprintf(os.Stderr, "opt: REFUSED, running unoptimized\n%s", res.Report.Text())
}

// metricsRegistry returns a registry when a -metrics-out path was given,
// nil (collecting nothing) otherwise.
func metricsRegistry(path string) *obs.Registry {
	if path == "" {
		return nil
	}
	return obs.NewRegistry()
}

// dumpMetrics folds the VM's final levels into reg and writes the snapshot
// as JSON. The dump happens after the run finishes, so it reads nothing
// concurrently with execution.
func dumpMetrics(reg *obs.Registry, path string, m *vm.VM) error {
	if reg == nil || path == "" {
		return nil
	}
	if m != nil {
		m.ObserveInto(reg)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	err = obs.WriteJSON(f, reg.Snapshot())
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("metrics dump: %w", err)
	}
	fmt.Fprintf(os.Stderr, "metrics -> %s\n", path)
	return nil
}

// cmdRecover salvages the longest valid prefix of a torn or corrupt
// streamed recording, optionally writing it out and replaying it to show
// how far the salvage carries.
func cmdRecover(args []string) error {
	fs := flag.NewFlagSet("recover", flag.ExitOnError)
	out := fs.String("o", "", "write the salvaged trace (sealed DVS1 container) to this file")
	replayProg := fs.String("replay", "", "replay the salvage against this program and report coverage")
	heapKB := fs.Int("heap", 1024, "initial semispace KiB (with -replay)")
	fs.Parse(args)
	if fs.NArg() != 1 {
		return fmt.Errorf("usage: dejavu recover [-o out.dvt] [-replay <prog>] <trace|journal-dir>")
	}
	if fi, err := os.Stat(fs.Arg(0)); err == nil && fi.IsDir() {
		return recoverJournal(fs.Arg(0), *replayProg, *heapKB*1024)
	}
	f, err := os.Open(fs.Arg(0))
	if err != nil {
		return err
	}
	defer f.Close()
	var salvaged bytes.Buffer
	rep, err := trace.RecoverStream(f, &salvaged)
	if err != nil {
		return err
	}
	fmt.Println(rep.String())
	if *out != "" {
		if err := os.WriteFile(*out, salvaged.Bytes(), 0o644); err != nil {
			return err
		}
		fmt.Printf("salvaged trace (%d bytes, sealed DVS1) -> %s\n", salvaged.Len(), *out)
	}
	if *replayProg != "" {
		return replaySalvage(*replayProg, salvaged.Bytes(), rep, *heapKB*1024)
	}
	return nil
}

// recoverJournal reports what survives in a segmented journal directory —
// sealed segments, durable checkpoints, and the salvaged unsealed tail —
// and optionally replays it to show how far recovery carries.
func recoverJournal(dir, replayProg string, heapBytes int) error {
	dfs, err := trace.NewDirFS(dir)
	if err != nil {
		return err
	}
	j, err := trace.OpenJournal(dfs)
	if err != nil {
		return err
	}
	fmt.Println(j.String())
	for _, s := range j.Manifest.Segments {
		fmt.Printf("  %s: %d events, %d switches, %d bytes (sealed)\n", s.Name, s.Events, s.Switches, s.Bytes)
	}
	for _, c := range j.Manifest.Checkpoints {
		fmt.Printf("  %s: seeds segment %d at %d events\n", c.Name, c.Index, c.VMEvents)
	}
	if j.Complete() {
		fmt.Println("journal is complete; recovery loses nothing")
	} else {
		fmt.Println("journal is incomplete: loss is bounded by the unsealed tail")
	}
	if replayProg == "" {
		return nil
	}
	prog, err := cli.LoadProgram(replayProg)
	if err != nil {
		return err
	}
	res, _, err := replaycheck.ReplayJournal(prog, dfs, replaycheck.Options{HeapBytes: heapBytes})
	if err != nil {
		return err
	}
	if res.RunErr == nil {
		fmt.Fprintf(os.Stderr, "replay complete: %d events\n", res.Events)
		return nil
	}
	if errors.Is(res.RunErr, io.ErrUnexpectedEOF) {
		fmt.Fprintf(os.Stderr, "partial journal: replayed %d events, stopped at the salvage point\n", res.Events)
		return nil
	}
	return res.RunErr
}

// replaySalvage replays a salvaged trace. A salvage without its end event
// is replayed as a partial trace: the run deterministically reproduces the
// recording up to the salvage point, then reports coverage — that is the
// expected outcome of recovering a crash, so it exits 0.
func replaySalvage(progArg string, salvaged []byte, rep *trace.RecoverReport, heapBytes int) error {
	prog, err := cli.LoadProgram(progArg)
	if err != nil {
		return err
	}
	img, err := vm.NewImage(prog)
	if err != nil {
		return err
	}
	flags := cli.EngineFlags{Mode: core.ModeReplay, TraceIn: salvaged, PartialTrace: !rep.EndEvent}
	eng, stop, err := cli.BuildEngine(img, flags)
	if err != nil {
		return err
	}
	defer stop()
	m, err := vm.Load(img, vm.Config{Engine: eng, Stdout: os.Stdout, HeapBytes: heapBytes})
	if err != nil {
		return err
	}
	runErr := m.Run()
	n, _ := eng.ReplayedEvents()
	if runErr == nil {
		fmt.Fprintf(os.Stderr, "replay complete: %d events\n", n)
		return nil
	}
	if errors.Is(runErr, io.ErrUnexpectedEOF) {
		fmt.Fprintf(os.Stderr, "partial trace: replayed %d of ~%d events\n", n, rep.EstimatedEvents)
		return nil
	}
	return runErr
}

func printStats(m *vm.VM, eng *core.Engine) {
	st := eng.Stats()
	fmt.Fprintf(os.Stderr, "events=%d yieldpoints=%d preemptive-switches=%d clockreads=%d natives=%d\n",
		m.Events(), st.YieldPoints, st.Switches, st.ClockReads, st.NativeCalls)
	fmt.Fprintf(os.Stderr, "heap: used=%dB collections=%d grows=%d allocs=%d\n",
		m.Heap().Used(), m.Heap().Collections, m.Heap().Grows, m.Heap().AllocCount)
}

func cmdAsm(args []string) error {
	if len(args) != 2 {
		return fmt.Errorf("usage: dejavu asm <in.dvs> <out.dva>")
	}
	src, err := os.ReadFile(args[0])
	if err != nil {
		return err
	}
	prog, err := bytecode.Assemble(string(src))
	if err != nil {
		return err
	}
	return os.WriteFile(args[1], bytecode.EncodeImage(prog), 0o644)
}

func cmdDisasm(args []string) error {
	if len(args) != 1 {
		return fmt.Errorf("usage: dejavu disasm <prog>")
	}
	prog, err := cli.LoadProgram(args[0])
	if err != nil {
		return err
	}
	fmt.Print(bytecode.Disassemble(prog))
	return nil
}

func cmdVerify(args []string) error {
	fs := flag.NewFlagSet("verify", flag.ExitOnError)
	workers := fs.Int("workers", 0, "also run record→replay verification across N parallel workers (0 = static bytecode verification only)")
	seeds := fs.Int("seeds", 5, "preemption seeds per program for replay verification")
	timeout := fs.Duration("timeout", 0, "per-job time budget; a job that overruns it fails with a stall report instead of hanging the pool (0 = none)")
	metricsOut := fs.String("metrics-out", "", "write verification-pool metrics as JSON to this file (replay verification only)")
	fs.Parse(args)
	if fs.NArg() != 1 {
		return fmt.Errorf("usage: dejavu verify [-workers N] [-seeds K] [-timeout D] <prog|all>")
	}
	arg := fs.Arg(0)
	if *workers <= 0 {
		if arg == "all" {
			return fmt.Errorf("verify all requires -workers")
		}
		prog, err := cli.LoadProgram(arg)
		if err != nil {
			return err
		}
		facts, err := vm.VerifyProgram(prog)
		if err != nil {
			return err
		}
		for i, m := range prog.Methods {
			ret := "void"
			if facts[i].ReturnsValue {
				ret = "value"
			}
			fmt.Printf("%-30s maxstack=%-3d returns %s\n", m.FullName(), facts[i].MaxStack, ret)
		}
		fmt.Println("verification passed")
		return nil
	}
	return verifyReplay(arg, *workers, *seeds, *timeout, *metricsOut)
}

// verifyReplay fans record→replay accuracy checks over a worker pool:
// every named program (or the whole workload registry for "all") is
// recorded and replayed under several preemption seeds, and the per-run
// divergence reports are aggregated into one summary.
func verifyReplay(arg string, workers, seeds int, timeout time.Duration, metricsOut string) error {
	type target struct {
		name string
		mk   func() *bytecode.Program
	}
	var targets []target
	if arg == "all" {
		for _, n := range workloads.Names() {
			targets = append(targets, target{n, workloads.Registry[n]})
		}
	} else {
		if _, err := cli.LoadProgram(arg); err != nil {
			return err
		}
		// Reload per job so concurrent runs never share a Program value.
		targets = append(targets, target{arg, func() *bytecode.Program {
			p, err := cli.LoadProgram(arg)
			if err != nil {
				panic(err)
			}
			return p
		}})
	}
	var jobs []replaycheck.VerifyJob
	for _, tg := range targets {
		for seed := int64(1); seed <= int64(seeds); seed++ {
			o := replaycheck.Options{Seed: seed, HostRand: seed}
			if tg.name == "sumlines" || tg.name == "workload:sumlines" {
				o.Input = "5\n15\n22\n\n"
			}
			jobs = append(jobs, replaycheck.VerifyJob{Name: tg.name, Prog: tg.mk, Options: o, Stream: true, Timeout: timeout})
		}
	}
	reg := metricsRegistry(metricsOut)
	sum := replaycheck.VerifyPoolObs(jobs, workers, reg)
	fmt.Print(sum.Report())
	if err := dumpMetrics(reg, metricsOut, nil); err != nil {
		return err
	}
	if sum.Failed > 0 {
		return fmt.Errorf("%d of %d replays diverged", sum.Failed, sum.Failed+sum.Passed)
	}
	return nil
}

func cmdTraceInfo(args []string) error {
	if len(args) != 1 {
		return fmt.Errorf("usage: dejavu traceinfo <trace.dvt>")
	}
	data, err := os.ReadFile(args[0])
	if err != nil {
		return err
	}
	s, err := trace.Summarize(data)
	if err != nil {
		return err
	}
	fmt.Printf("trace    %s (%s container, %d bytes)\n", args[0], data[:4], s.Stats.TotalBytes)
	fmt.Printf("program  %x\n", s.ProgHash)
	kinds := []trace.Kind{trace.EvSwitch, trace.EvClock, trace.EvNative, trace.EvInput, trace.EvCallback}
	names := []string{"preemptive switches", "clock reads", "native results", "input reads", "callbacks"}
	for i, k := range kinds {
		fmt.Printf("%-20s %6d events %8d bytes\n", names[i], s.Stats.Events[k], s.Stats.BytesByKind[k])
	}
	if n := s.Stats.Events[trace.EvSwitch]; n > 0 {
		fmt.Printf("yield points between preemptions: min=%d avg=%.1f max=%d\n",
			s.SwitchNYP.Min, float64(s.SwitchNYP.Sum)/float64(n), s.SwitchNYP.Max)
	}
	return nil
}

func cmdInfo(args []string) error {
	if len(args) != 1 {
		return fmt.Errorf("usage: dejavu info <prog>")
	}
	prog, err := cli.LoadProgram(args[0])
	if err != nil {
		return err
	}
	fmt.Printf("program %s\n", prog.Name)
	fmt.Printf("hash    %x\n", vm.ProgramHash(prog))
	fmt.Printf("entry   %s\n", prog.EntryMethod().FullName())
	instr := 0
	for _, c := range prog.Classes {
		fmt.Printf("class %s: %d fields, %d statics, %d methods\n",
			c.Name, len(c.Fields), len(c.Statics), len(c.Methods))
		for _, m := range c.Methods {
			fmt.Printf("  %s args=%d locals=%d code=%d\n", m.Name, m.NArgs, m.NLocals, len(m.Code))
			instr += len(m.Code)
		}
	}
	fmt.Printf("total: %d classes, %d methods, %d instructions\n",
		len(prog.Classes), len(prog.Methods), instr)
	return nil
}
