// POST /v1/ingest: accept a flushed flight-recorder journal from a remote
// machine as a tar bundle, validate it end to end, and store it under the
// data root keyed by content digest.
//
// A crashed process's last act is often a flight flush; shipping that
// directory to a central dvserve makes it debuggable anywhere. The endpoint
// is strict so the store only ever holds journals that will actually open:
// the bundle must unpack to a flat set of plainly named files, parse as a
// journal (manifest CRC), decode every trace chunk (stream CRCs), and load
// every checkpoint named by the manifest. Uploads are deduplicated by a
// SHA-256 digest over the sorted file names and contents — re-ingesting the
// same flush is cheap and idempotent. Accepted bundles land under
// <data-root>/ingest/<digest-prefix>/ via temp-dir-and-rename, so a crash
// mid-ingest never leaves a half-written journal in the store.
package main

import (
	"archive/tar"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"path"
	"path/filepath"
	"sort"
	"strings"

	"dejavu/internal/obs"
	"dejavu/internal/sessions"
	"dejavu/internal/trace"
)

const (
	maxIngestBytes = 64 << 20 // request body cap
	maxIngestFiles = 1024     // files per bundle cap
)

// ingestResponse is the accept/dedup report.
type ingestResponse struct {
	Digest   string `json:"digest"`
	Deduped  bool   `json:"deduped"`
	Events   int    `json:"events"`
	Segments int    `json:"segments"`
	Origin   uint64 `json:"origin"`
	Complete bool   `json:"complete"`
}

// ingestHandler builds the POST /v1/ingest handler over dataRoot. admit
// (optional) is the manager's load-shedding gate — a draining server, a
// data root below the critical watermark, or an over-rate tenant (from the
// X-Tenant header or ?tenant=) refuses the upload with Retry-After
// guidance before a byte of the body is read.
func ingestHandler(dataRoot string, reg *obs.Registry, admit func(tenant string) error) http.HandlerFunc {
	accepted := reg.Counter("dv_ingest_accepted_total")
	deduped := reg.Counter("dv_ingest_deduped_total")
	rejected := reg.Counter("dv_ingest_rejected_total")
	shed := reg.Counter("dv_ingest_shed_total")
	bytesIn := reg.Counter("dv_ingest_bytes_total")
	root := filepath.Join(dataRoot, "ingest")
	return func(w http.ResponseWriter, r *http.Request) {
		reject := func(code int, msg string) {
			rejected.Inc()
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(code)
			json.NewEncoder(w).Encode(map[string]string{"error": msg})
		}
		if admit != nil {
			tenant := r.Header.Get("X-Tenant")
			if tenant == "" {
				tenant = r.URL.Query().Get("tenant")
			}
			if err := admit(tenant); err != nil {
				shed.Inc()
				if !sessions.WriteRefusal(w, err) {
					reject(http.StatusServiceUnavailable, err.Error())
				}
				return
			}
		}
		if err := os.MkdirAll(root, 0o755); err != nil {
			reject(http.StatusInternalServerError, err.Error())
			return
		}
		tmp, err := os.MkdirTemp(root, ".in-")
		if err != nil {
			reject(http.StatusInternalServerError, err.Error())
			return
		}
		defer os.RemoveAll(tmp)
		n, err := unpackBundle(tar.NewReader(http.MaxBytesReader(w, r.Body, maxIngestBytes)), tmp)
		if err != nil {
			var mbe *http.MaxBytesError
			if errors.As(err, &mbe) {
				reject(http.StatusRequestEntityTooLarge,
					fmt.Sprintf("bundle exceeds the %d-byte ingest cap", maxIngestBytes))
				return
			}
			reject(http.StatusBadRequest, "bad bundle: "+err.Error())
			return
		}
		if n == 0 {
			reject(http.StatusBadRequest, "empty bundle")
			return
		}
		fs, err := trace.NewDirFS(tmp)
		if err != nil {
			reject(http.StatusInternalServerError, err.Error())
			return
		}
		j, err := trace.OpenJournal(fs)
		if err != nil {
			reject(http.StatusUnprocessableEntity, "bundle is not a journal: "+err.Error())
			return
		}
		// CRC-validate every byte the manifest commits to: drain the full
		// trace (chunk checksums) and load every named checkpoint.
		src, err := j.Source()
		if err == nil {
			_, err = src.Load()
		}
		if err != nil {
			reject(http.StatusUnprocessableEntity, "journal trace is torn or corrupt: "+err.Error())
			return
		}
		for _, c := range j.Manifest.Checkpoints {
			if _, err := j.LoadCheckpoint(c); err != nil {
				reject(http.StatusUnprocessableEntity,
					fmt.Sprintf("journal checkpoint %s is unloadable: %v", c.Name, err))
				return
			}
		}
		digest, total, err := bundleDigest(tmp)
		if err != nil {
			reject(http.StatusInternalServerError, err.Error())
			return
		}
		resp := ingestResponse{
			Digest:   digest,
			Events:   j.Events(),
			Segments: j.Segments(),
			Origin:   j.Origin(),
			Complete: j.Complete(),
		}
		final := filepath.Join(root, digest[:16])
		code := http.StatusCreated
		if _, err := os.Stat(final); err == nil {
			resp.Deduped = true
			code = http.StatusOK
			deduped.Inc()
		} else if err := os.Rename(tmp, final); err != nil {
			reject(http.StatusInternalServerError, "store: "+err.Error())
			return
		} else {
			accepted.Inc()
			bytesIn.Add(uint64(total))
		}
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(code)
		json.NewEncoder(w).Encode(resp)
	}
}

// unpackBundle extracts a flat journal bundle into dir. One leading
// directory component is tolerated (tar bundles of a directory carry it);
// anything deeper, non-regular, dot-prefixed, or path-escaping is refused
// before a byte lands on disk.
func unpackBundle(tr *tar.Reader, dir string) (int, error) {
	n := 0
	for {
		hdr, err := tr.Next()
		if errors.Is(err, io.EOF) {
			return n, nil
		}
		if err != nil {
			return n, err
		}
		if hdr.Typeflag == tar.TypeDir {
			continue
		}
		if hdr.Typeflag != tar.TypeReg {
			return n, fmt.Errorf("entry %q: only regular files allowed", hdr.Name)
		}
		name := path.Clean(hdr.Name)
		if name == ".." || strings.HasPrefix(name, "../") {
			return n, fmt.Errorf("entry %q: path escapes the bundle", hdr.Name)
		}
		if i := strings.IndexByte(name, '/'); i >= 0 {
			name = name[i+1:]
		}
		if name == "" || name == "." || name == ".." ||
			strings.ContainsAny(name, "/\\") || strings.HasPrefix(name, ".") {
			return n, fmt.Errorf("entry %q: unsupported path", hdr.Name)
		}
		n++
		if n > maxIngestFiles {
			return n, fmt.Errorf("bundle has more than %d files", maxIngestFiles)
		}
		f, err := os.OpenFile(filepath.Join(dir, name), os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
		if err != nil {
			return n, err
		}
		if _, err := io.Copy(f, tr); err != nil {
			f.Close()
			return n, err
		}
		if err := f.Close(); err != nil {
			return n, err
		}
	}
}

// bundleDigest hashes the unpacked bundle: SHA-256 over the sorted file
// names and contents, NUL-delimited, so the digest identifies the journal's
// exact bytes independent of tar framing or upload order.
func bundleDigest(dir string) (string, int64, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return "", 0, err
	}
	names := make([]string, 0, len(ents))
	for _, e := range ents {
		if e.Type().IsRegular() {
			names = append(names, e.Name())
		}
	}
	sort.Strings(names)
	h := sha256.New()
	var total int64
	for _, name := range names {
		b, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			return "", 0, err
		}
		h.Write([]byte(name))
		h.Write([]byte{0})
		h.Write(b)
		h.Write([]byte{0})
		total += int64(len(b))
	}
	return hex.EncodeToString(h.Sum(nil)), total, nil
}
