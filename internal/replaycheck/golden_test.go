// Interpreter goldens: for every corpus workload and seed, the recorded
// trace, output, final state, event and switch counts, record and replay
// digests, every journal file under each rotation policy, and every
// flushed flight window are pinned in testdata. Run (fused slices,
// deferred flushes) and a Step loop (unfused stream, eager flushes) must
// both reproduce them exactly.
package replaycheck_test

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"dejavu/internal/faults/memfs"
	"dejavu/internal/flightrec"
	"dejavu/internal/heap"
	"dejavu/internal/replaycheck"
	"dejavu/internal/trace"
	"dejavu/internal/vm"
	"dejavu/internal/workloads"
)

var update = flag.Bool("update", false, "rewrite testdata/interp_goldens.json from a Step-loop run")

const goldensPath = "testdata/interp_goldens.json"

var goldenSeeds = []int64{1, 4, 9}

type goldenRun struct {
	Name         string `json:"name"`
	Trace        string `json:"trace_sha256"`
	Output       string `json:"output_sha256"`
	FinalState   string `json:"final_state_sha256"`
	Events       uint64 `json:"events"`
	Switches     uint64 `json:"switches"`
	RecordDigest string `json:"record_digest"`
	ReplayDigest string `json:"replay_digest"`
}

type goldenFiles struct {
	Name  string `json:"name"`
	Files string `json:"files_sha256"`
}

type goldens struct {
	Runs     []goldenRun   `json:"runs"`
	Journals []goldenFiles `json:"journals"`
	Flights  []goldenFiles `json:"flights"`
}

func sha(b []byte) string {
	s := sha256.Sum256(b)
	return hex.EncodeToString(s[:])
}

// filesSHA hashes every file in name order, each framed by its name and
// length so that no two file sets share a digest. A checkpoint (.dvck) is
// hashed by its decoded content rather than its encoding, so that a
// change of checkpoint format that keeps what a checkpoint restores
// keeps the digest.
func filesSHA(t *testing.T, progHash uint64, files map[string][]byte) string {
	t.Helper()
	h := sha256.New()
	var n [8]byte
	for _, name := range sortedNames(files) {
		b := files[name]
		if strings.HasSuffix(name, ".dvck") {
			b = checkpointContent(t, name, progHash, b)
		}
		h.Write([]byte(name))
		binary.LittleEndian.PutUint64(n[:], uint64(len(b)))
		h.Write(n[:])
		h.Write(b)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// checkpointContent renders what a journal checkpoint file restores: its
// segment index, VMEvents and BoundaryNYP, the heap geometry (semi, base,
// alloc), the allocated heap image [base, alloc), and the VM state bytes
// around the heap snapshot.
func checkpointContent(t *testing.T, name string, progHash uint64, data []byte) []byte {
	t.Helper()
	ck, err := trace.DecodeCheckpoint(data, progHash)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	const vmHeader = 12 // checkpoint magic + program hash
	if len(ck.State) < vmHeader {
		t.Fatalf("%s: VM state of %d bytes", name, len(ck.State))
	}
	hs, rest, err := heap.DecodeSnapshot(ck.State[vmHeader:])
	if err != nil {
		t.Fatalf("%s: heap snapshot: %v", name, err)
	}
	image := hs.Image
	var out []byte
	for _, v := range []uint64{uint64(ck.Index), ck.VMEvents, ck.BoundaryNYP,
		uint64(hs.Semi), uint64(hs.Base), uint64(hs.Alloc), uint64(len(image))} {
		out = binary.LittleEndian.AppendUint64(out, v)
	}
	out = append(out, image...)
	out = append(out, ck.State[:vmHeader]...)
	return append(out, rest...)
}

// collectGoldens runs the whole matrix under whichever driver is
// installed (Run unless replaycheck.UseStepLoop is in effect).
func collectGoldens(t *testing.T) goldens {
	t.Helper()
	var g goldens
	for _, name := range workloads.Names() {
		prog := workloads.Registry[name]
		for _, seed := range goldenSeeds {
			id := fmt.Sprintf("%s/seed%d", name, seed)
			rec, err := replaycheck.Record(prog(), optsFor(name, seed))
			if err != nil || rec.RunErr != nil {
				t.Fatalf("%s record: %v %v", id, err, rec.RunErr)
			}
			rep, err := replaycheck.Replay(prog(), rec.Trace, optsFor(name, seed))
			if err != nil || rep.RunErr != nil {
				t.Fatalf("%s replay: %v %v", id, err, rep.RunErr)
			}
			g.Runs = append(g.Runs, goldenRun{
				Name:         id,
				Trace:        sha(rec.Trace),
				Output:       sha(rec.Output),
				FinalState:   sha([]byte(strings.Join(rec.VM.FinalState(), "\n"))),
				Events:       rec.Events,
				Switches:     rec.Digest.Switches(),
				RecordDigest: fmt.Sprintf("%016x", rec.Digest.Sum()),
				ReplayDigest: fmt.Sprintf("%016x", rep.Digest.Sum()),
			})

			for _, pol := range journalPolicies {
				fs := memfs.New()
				o := journalDiffOptions(name, seed, pol.events, pol.bytes)
				jr, err := replaycheck.RecordJournal(prog(), fs, o)
				if err != nil || jr.RunErr != nil {
					t.Fatalf("%s/%s journal: %v %v", id, pol.name, err, jr.RunErr)
				}
				g.Journals = append(g.Journals, goldenFiles{
					Name: id + "/" + pol.name, Files: filesSHA(t, vm.ProgramHash(prog()), journalFiles(t, fs)),
				})
			}

			g.Flights = append(g.Flights, goldenFiles{
				Name: id, Files: filesSHA(t, vm.ProgramHash(prog()), flightWindow(t, name, seed)),
			})
		}
	}
	return g
}

// flightWindow records name/seed into a small flight ring and returns
// the files of the window it flushes.
func flightWindow(t *testing.T, name string, seed int64) map[string][]byte {
	t.Helper()
	prog := workloads.Registry[name]
	ring, err := flightrec.NewRing(vm.ProgramHash(prog()), flightrec.Options{
		WindowEvents: 12, SegmentEvents: 3,
	})
	if err != nil {
		t.Fatalf("NewRing: %v", err)
	}
	rec, err := replaycheck.RecordSink(prog(), ring, journalDiffOptions(name, seed, 0, 0))
	if err != nil || rec.RunErr != nil {
		t.Fatalf("%s/seed%d flight record: %v %v", name, seed, err, rec.RunErr)
	}
	fs := memfs.New()
	if _, err := ring.FlushTo(fs, "differential"); err != nil {
		t.Fatalf("FlushTo: %v", err)
	}
	return journalFiles(t, fs)
}

func compareGoldens(t *testing.T, want, got goldens) {
	t.Helper()
	if len(want.Runs) != len(got.Runs) || len(want.Journals) != len(got.Journals) ||
		len(want.Flights) != len(got.Flights) {
		t.Fatalf("matrix shape changed: want %d/%d/%d runs/journals/flights, got %d/%d/%d (regenerate with -update)",
			len(want.Runs), len(want.Journals), len(want.Flights),
			len(got.Runs), len(got.Journals), len(got.Flights))
	}
	for i := range want.Runs {
		if want.Runs[i] != got.Runs[i] {
			t.Errorf("run %s diverged:\nwant %+v\ngot  %+v", want.Runs[i].Name, want.Runs[i], got.Runs[i])
		}
	}
	for i := range want.Journals {
		if want.Journals[i] != got.Journals[i] {
			t.Errorf("journal %s diverged: want %s, got %s (%s)",
				want.Journals[i].Name, want.Journals[i].Files, got.Journals[i].Files, got.Journals[i].Name)
		}
	}
	for i := range want.Flights {
		if want.Flights[i] != got.Flights[i] {
			t.Errorf("flight window %s diverged: want %s, got %s (%s)",
				want.Flights[i].Name, want.Flights[i].Files, got.Flights[i].Files, got.Flights[i].Name)
		}
	}
}

func TestInterpreterGoldens(t *testing.T) {
	if *update {
		var g goldens
		withStepLoop(func() { g = collectGoldens(t) })
		blob, err := json.MarshalIndent(g, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(goldensPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldensPath, append(blob, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	blob, err := os.ReadFile(goldensPath)
	if err != nil {
		t.Fatalf("read goldens: %v", err)
	}
	var want goldens
	if err := json.Unmarshal(blob, &want); err != nil {
		t.Fatalf("parse goldens: %v", err)
	}
	t.Run("run", func(t *testing.T) {
		compareGoldens(t, want, collectGoldens(t))
	})
	t.Run("step", func(t *testing.T) {
		withStepLoop(func() { compareGoldens(t, want, collectGoldens(t)) })
	})
}
