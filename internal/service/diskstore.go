package service

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// diskStore is the durable tier behind the in-memory plan LRU (DESIGN.md
// §14): content-addressed artifacts, one file per canonical plan key,
// written atomically (tmp + rename) so a reader — including a process
// restarted mid-write — only ever sees a complete artifact or none. All
// counters are monotonic atomics; Artifacts, the size of valid, is the
// only gauge.
type diskStore struct {
	dir string

	hits, misses atomic.Int64
	// corrupt counts artifacts skipped because they failed to decode or
	// named a different key than the one requested — torn writes the
	// rename discipline could not prevent (e.g. external truncation),
	// checksum mismatches, foreign files. They degrade to a recompute,
	// never a panic or a wrong plan.
	corrupt      atomic.Int64
	writes       atomic.Int64
	writeErrs    atomic.Int64
	bytesRead    atomic.Int64
	bytesWritten atomic.Int64
	// loadUs accumulates wall-clock artifact read+verify latency — the
	// disk tier's load-latency counter on /v1/stats.
	loadUs atomic.Int64

	// valid holds the file names of the artifacts believed valid on disk:
	// filled by open, added to by every put, removed from wherever an
	// artifact is found corrupt or missing. Only map updates run under mu,
	// never file I/O.
	mu    sync.Mutex
	valid map[string]struct{}
}

const (
	artifactExt = ".plan"
	tmpPrefix   = ".tmp-"
)

// openDiskStore opens (creating if needed) the artifact store in dir and
// restores its contents: every artifact is read and verified up front, so
// the restored count on /v1/stats reflects plans that will actually be
// served, and a crash's leftovers — tmp files from torn writes, truncated
// or checksum-corrupt artifacts — are counted, not trusted. Corrupt
// artifacts are left in place; a later put for their key overwrites them.
func openDiskStore(dir string) (*diskStore, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store dir: %w", err)
	}
	d := &diskStore{dir: dir, valid: make(map[string]struct{})}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("store dir: %w", err)
	}
	for _, e := range entries {
		name := e.Name()
		if strings.HasPrefix(name, tmpPrefix) {
			// A tmp file is by definition a write that never committed;
			// removing it is the crash-recovery half of tmp+rename.
			os.Remove(filepath.Join(dir, name)) //nolint:errcheck // best effort
			continue
		}
		if e.IsDir() || !strings.HasSuffix(name, artifactExt) {
			continue
		}
		b, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			d.corrupt.Add(1)
			continue
		}
		key, _, err := decodeArtifact(b)
		if err != nil || d.fileName(key) != name {
			d.corrupt.Add(1)
			continue
		}
		d.valid[name] = struct{}{}
	}
	return d, nil
}

// fileName is the content address of one plan key: a SHA-256 of the
// canonical key, so arbitrary key strings map to safe, fixed-length file
// names and equal keys always land on the same artifact.
func (d *diskStore) fileName(key string) string {
	sum := sha256.Sum256([]byte(key))
	return hex.EncodeToString(sum[:]) + artifactExt
}

// get loads and verifies the artifact for key. A missing file is a miss; a
// file that fails decoding or names another key counts as corrupt and
// degrades to a miss (the caller recomputes and overwrites it).
func (d *diskStore) get(key string) ([]byte, bool) {
	start := time.Now()
	name := d.fileName(key)
	b, err := os.ReadFile(filepath.Join(d.dir, name))
	if err != nil {
		d.setValid(name, false)
		d.misses.Add(1)
		return nil, false
	}
	gotKey, payload, err := decodeArtifact(b)
	if err != nil || gotKey != key {
		d.discard(key)
		d.misses.Add(1)
		return nil, false
	}
	d.hits.Add(1)
	d.bytesRead.Add(int64(len(b)))
	d.loadUs.Add(time.Since(start).Microseconds())
	return payload, true
}

// put writes the artifact for key atomically: encode, write + sync a tmp
// file in the same directory, then rename over the final name. Concurrent
// puts for one key race benignly — each rename installs one complete
// artifact. Errors are counted and swallowed; the store is a cache, and a
// failed write only costs durability, not correctness.
func (d *diskStore) put(key string, payload []byte) {
	name := d.fileName(key)
	f, err := os.CreateTemp(d.dir, tmpPrefix)
	if err != nil {
		d.writeErrs.Add(1)
		return
	}
	b := encodeArtifact(key, payload)
	_, err = f.Write(b)
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(f.Name(), filepath.Join(d.dir, name))
	}
	if err != nil {
		d.writeErrs.Add(1)
		os.Remove(f.Name()) //nolint:errcheck // best effort
		return
	}
	d.writes.Add(1)
	d.bytesWritten.Add(int64(len(b)))
	d.setValid(name, true)
}

// discard counts key's artifact as corrupt and drops it from the
// artifacts gauge: the file stays until a put for key overwrites it.
func (d *diskStore) discard(key string) {
	d.corrupt.Add(1)
	d.setValid(d.fileName(key), false)
}

// setValid records whether the artifact file name holds a valid artifact.
func (d *diskStore) setValid(name string, ok bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if ok {
		d.valid[name] = struct{}{}
	} else {
		delete(d.valid, name)
	}
}

// DiskTierStats is the disk tier's slice of /v1/stats (DESIGN.md §14).
// Everything but Artifacts (a gauge) is monotonic.
type DiskTierStats struct {
	Dir          string `json:"dir"`
	Artifacts    int64  `json:"artifacts"`
	Hits         int64  `json:"hits"`
	Misses       int64  `json:"misses"`
	Corrupt      int64  `json:"corrupt"`
	Writes       int64  `json:"writes"`
	WriteErrors  int64  `json:"write_errors"`
	BytesRead    int64  `json:"bytes_read"`
	BytesWritten int64  `json:"bytes_written"`
	LoadUs       int64  `json:"load_us"`
}

func (d *diskStore) stats() DiskTierStats {
	d.mu.Lock()
	artifacts := len(d.valid)
	d.mu.Unlock()
	return DiskTierStats{
		Dir:          d.dir,
		Artifacts:    int64(artifacts),
		Hits:         d.hits.Load(),
		Misses:       d.misses.Load(),
		Corrupt:      d.corrupt.Load(),
		Writes:       d.writes.Load(),
		WriteErrors:  d.writeErrs.Load(),
		BytesRead:    d.bytesRead.Load(),
		BytesWritten: d.bytesWritten.Load(),
		LoadUs:       d.loadUs.Load(),
	}
}
