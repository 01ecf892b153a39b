// Command dvbench regenerates the experiment tables indexed in DESIGN.md
// (E1–E3, E5–E15, E19–E22). The paper itself publishes no quantitative
// tables (its figures are code and architecture illustrations), so each
// experiment either reproduces a figure's demonstrated behavior as a
// checked, executable artifact, or quantifies an efficiency claim against
// the related-work baselines of §5. It exits non-zero when an
// experiment's assertion fails. Record, replay, journal and flight
// throughput are measured by perfbench, not here.
//
// usage: dvbench [-e E5] [-e E8] ...   (default: all)
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
)

type experiment struct {
	id    string
	title string
	run   func(*report) error
}

var experiments = []experiment{
	{"E1", "Fig. 1 A/B — schedule-dependent outcomes, replayed exactly", runE1},
	{"E2", "Fig. 1 C/D — wall-clock-dependent control flow, replayed exactly", runE2},
	{"E3", "Fig. 2 — symmetric instrumentation and logical clocks", runE3},
	{"E5", "trace size vs related-work schemes", runE5},
	{"E6", "Fig. 3 — remote reflection line-number query", runE6},
	{"E7", "Fig. 4 — perturbation-free debugging", runE7},
	{"E8", "replay accuracy across seeds and workloads", runE8},
	{"E9", "symmetry ablations", runE9},
	{"E10", "Igor-style checkpointing and time travel", runE10},
	{"E11", "remote reflection peek latency (local vs TCP)", runE11},
	{"E12", "GC determinism under replay", runE12},
	{"E13", "Fig. 3/§3.4 — the tool VM's extended bytecodes", runE13},
	{"E14", "replay-based tools: deterministic race detection and profiling", runE14},
	{"E15", "crash tolerance: durability policy cost and torn-journal salvage", runE15},
	{"E19", "certified optimizer: Mev/s optimized vs unoptimized, replay intact", runE19},
	{"E20", "flight recorder: off/journal/flight digest identity, flush integrity, ddmin reduction", runE20},
	{"E21", "chaos resilience: quarantine, supervised recovery, and travel latency under storage faults", runE21},
	{"E22", "interpreter drivers: Step loop vs Run Mev/s, Step/Run identity", runE22},
}

type multiFlag []string

func (m *multiFlag) String() string     { return strings.Join(*m, ",") }
func (m *multiFlag) Set(v string) error { *m = append(*m, strings.ToUpper(v)); return nil }

// verifyWorkers sizes the E8 verification pool (0 = GOMAXPROCS).
var verifyWorkers int

func main() {
	var only multiFlag
	flag.Var(&only, "e", "experiment id to run (repeatable; default all)")
	flag.IntVar(&verifyWorkers, "workers", 0, "parallel workers for replay verification (E8); 0 = GOMAXPROCS")
	flag.Parse()
	sel := map[string]bool{}
	for _, id := range only {
		sel[id] = true
	}
	r := &report{out: os.Stdout}
	failures := 0
	for _, ex := range experiments {
		if len(sel) > 0 && !sel[ex.id] {
			continue
		}
		r.section(ex.id, ex.title)
		if err := ex.run(r); err != nil {
			fmt.Fprintf(os.Stderr, "%s FAILED: %v\n", ex.id, err)
			failures++
		}
	}
	if failures > 0 {
		os.Exit(1)
	}
}

// report renders aligned tables.
type report struct {
	out *os.File
}

func (r *report) section(id, title string) {
	fmt.Fprintf(r.out, "\n## %s: %s\n\n", id, title)
}

func (r *report) note(format string, args ...any) {
	fmt.Fprintf(r.out, format+"\n", args...)
}

func (r *report) table(header []string, rows [][]string) {
	widths := make([]int, len(header))
	for i, h := range header {
		widths[i] = len(h)
	}
	for _, row := range rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	line := func(cells []string) {
		parts := make([]string, len(cells))
		for i, c := range cells {
			parts[i] = fmt.Sprintf("%-*s", widths[i], c)
		}
		fmt.Fprintln(r.out, "  "+strings.Join(parts, "  "))
	}
	line(header)
	dashes := make([]string, len(header))
	for i := range dashes {
		dashes[i] = strings.Repeat("-", widths[i])
	}
	line(dashes)
	for _, row := range rows {
		line(row)
	}
	fmt.Fprintln(r.out)
}

func sortedKeys[V any](m map[string]V) []string {
	var ks []string
	for k := range m {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}
