package service

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"hash/crc32"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"lancet"
)

// persistence_test.go pins the durable plan store's crash-recovery contract
// (DESIGN.md §14): a restart serves previously computed plans byte-identically
// from disk, and torn, truncated or corrupt artifacts degrade to a counted
// recompute — never a panic, never a wrong plan.

func openService(t *testing.T, dir string) *Service {
	t.Helper()
	svc, err := Open(Config{}, dir)
	if err != nil {
		t.Fatal(err)
	}
	return svc
}

// fastPlanKey is fastPlanBody's canonical plan key.
func fastPlanKey(t *testing.T) string {
	t.Helper()
	c, err := PlanRequest{Framework: "raf", Baseline: BaselineNone}.canonicalize()
	if err != nil {
		t.Fatal(err)
	}
	return c.planKey(c.framework)
}

// soleArtifact returns the path of the store's single .plan file.
func soleArtifact(t *testing.T, dir string) string {
	t.Helper()
	matches, err := filepath.Glob(filepath.Join(dir, "*.plan"))
	if err != nil || len(matches) != 1 {
		t.Fatalf("want exactly one artifact in %s, got %v (%v)", dir, matches, err)
	}
	return matches[0]
}

func TestRestartRoundTripByteIdentical(t *testing.T) {
	dir := t.TempDir()
	first := openService(t, dir)
	fresh := postPlan(t, first.Handler(), fastPlanBody)
	if fresh.Code != http.StatusOK {
		t.Fatalf("status = %d, body %s", fresh.Code, fresh.Body)
	}
	if got := fresh.Header().Get("X-Lancet-Cache"); got != "miss" {
		t.Fatalf("first request cache state = %q, want miss", got)
	}
	if ds := first.Stats().DiskStore; ds == nil || ds.Writes != 1 || ds.Artifacts != 1 {
		t.Fatalf("write-through missing: %+v", first.Stats().DiskStore)
	}

	// "Restart": a second service on the same directory, first one dropped.
	second := openService(t, dir)
	if ds := second.Stats().DiskStore; ds.Artifacts != 1 || ds.Corrupt != 0 {
		t.Fatalf("restore found %d artifacts, %d corrupt; want 1, 0", ds.Artifacts, ds.Corrupt)
	}
	restored := postPlan(t, second.Handler(), fastPlanBody)
	if restored.Code != http.StatusOK {
		t.Fatalf("status = %d, body %s", restored.Code, restored.Body)
	}
	if got := restored.Header().Get("X-Lancet-Cache"); got != "disk" {
		t.Errorf("restored request cache state = %q, want disk", got)
	}
	if !bytes.Equal(fresh.Body.Bytes(), restored.Body.Bytes()) {
		t.Error("restored response differs from the pre-restart bytes")
	}
	if got := second.Computations(); got != 0 {
		t.Errorf("restored plan still ran %d computations", got)
	}
	// The disk hit promoted the plan into the memory tier.
	again := postPlan(t, second.Handler(), fastPlanBody)
	if got := again.Header().Get("X-Lancet-Cache"); got != "hit" {
		t.Errorf("post-promotion cache state = %q, want hit", got)
	}
	st := second.Stats()
	if st.PlanTiers.DiskHits != 1 || st.PlanTiers.MemoryHits != 1 || st.PlanTiers.Misses != 0 {
		t.Errorf("tier breakdown = %+v, want disk 1, memory 1, misses 0", st.PlanTiers)
	}
}

func TestCorruptArtifactsDegradeToCountedRecompute(t *testing.T) {
	// Each corruption shape must be skipped at open (counted, not restored),
	// recomputed on request, and repaired on disk by the write-through.
	corruptions := []struct {
		name    string
		corrupt func(t *testing.T, path string)
	}{
		{"truncated", func(t *testing.T, path string) {
			b, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, b[:len(b)/2], 0o644); err != nil {
				t.Fatal(err)
			}
		}},
		{"checksum flip", func(t *testing.T, path string) {
			b, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			b[len(b)/2] ^= 0xff
			if err := os.WriteFile(path, b, 0o644); err != nil {
				t.Fatal(err)
			}
		}},
		{"trailing bytes", func(t *testing.T, path string) {
			f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0o644)
			if err != nil {
				t.Fatal(err)
			}
			f.Write([]byte("junk")) //nolint:errcheck
			f.Close()
		}},
		{"foreign garbage", func(t *testing.T, path string) {
			if err := os.WriteFile(path, []byte("not an artifact at all"), 0o644); err != nil {
				t.Fatal(err)
			}
		}},
		{"empty file", func(t *testing.T, path string) {
			if err := os.WriteFile(path, nil, 0o644); err != nil {
				t.Fatal(err)
			}
		}},
	}
	for _, tc := range corruptions {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			first := openService(t, dir)
			fresh := postPlan(t, first.Handler(), fastPlanBody)
			if fresh.Code != http.StatusOK {
				t.Fatalf("status = %d, body %s", fresh.Code, fresh.Body)
			}
			tc.corrupt(t, soleArtifact(t, dir))

			second := openService(t, dir)
			if ds := second.Stats().DiskStore; ds.Corrupt != 1 || ds.Artifacts != 0 {
				t.Errorf("open counted %d corrupt, restored %d; want 1, 0", ds.Corrupt, ds.Artifacts)
			}
			w := postPlan(t, second.Handler(), fastPlanBody)
			if w.Code != http.StatusOK {
				t.Fatalf("status = %d, body %s", w.Code, w.Body)
			}
			if got := w.Header().Get("X-Lancet-Cache"); got != "miss" {
				t.Errorf("corrupt artifact served as %q, want miss (recompute)", got)
			}
			// Determinism makes wrong-plan detection exact: the recomputed
			// response must match the original fresh bytes.
			if !bytes.Equal(fresh.Body.Bytes(), w.Body.Bytes()) {
				t.Error("recomputed response differs from the original plan")
			}
			if got := second.Computations(); got != 1 {
				t.Errorf("computations = %d, want 1", got)
			}
			if ds := second.Stats().DiskStore; ds.Artifacts != 1 {
				t.Errorf("after the repairing write-through the gauge reads %d artifacts, want 1", ds.Artifacts)
			}
			// The write-through repaired the artifact: a third open restores it.
			third := openService(t, dir)
			if ds := third.Stats().DiskStore; ds.Artifacts != 1 || ds.Corrupt != 0 {
				t.Errorf("repair failed: %d artifacts, %d corrupt after recompute", ds.Artifacts, ds.Corrupt)
			}
		})
	}
}

func TestTornTmpFilesRemovedAtOpen(t *testing.T) {
	dir := t.TempDir()
	// A crash mid-put leaves a tmp file that never renamed into place.
	torn := filepath.Join(dir, tmpPrefix+"123456")
	if err := os.WriteFile(torn, []byte("half an artifact"), 0o644); err != nil {
		t.Fatal(err)
	}
	svc := openService(t, dir)
	if _, err := os.Stat(torn); !os.IsNotExist(err) {
		t.Errorf("torn tmp file survived open: %v", err)
	}
	if ds := svc.Stats().DiskStore; ds.Artifacts != 0 || ds.Corrupt != 0 {
		t.Errorf("tmp file counted as artifact or corrupt: %+v", ds)
	}
}

func TestWrongKeyArtifactSkippedAtOpen(t *testing.T) {
	// A structurally valid artifact filed under another key's name (e.g. a
	// botched manual copy) must not be served for either key.
	dir := t.TempDir()
	first := openService(t, dir)
	postPlan(t, first.Handler(), fastPlanBody)
	src := soleArtifact(t, dir)
	b, err := os.ReadFile(src)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, strings.Repeat("ab", 32)+artifactExt), b, 0o644); err != nil {
		t.Fatal(err)
	}
	second := openService(t, dir)
	if ds := second.Stats().DiskStore; ds.Artifacts != 1 || ds.Corrupt != 1 {
		t.Errorf("open restored %d artifacts, %d corrupt; want 1 valid + 1 wrong-name", ds.Artifacts, ds.Corrupt)
	}
}

func TestCorruptionAfterOpenDegradesOnGet(t *testing.T) {
	// Startup validation can't protect against corruption that lands while
	// the service is running; the read path must degrade the same way.
	dir := t.TempDir()
	first := openService(t, dir)
	fresh := postPlan(t, first.Handler(), fastPlanBody)

	second := openService(t, dir)
	b, err := os.ReadFile(soleArtifact(t, dir))
	if err != nil {
		t.Fatal(err)
	}
	b[len(b)-1] ^= 0xff // break the checksum under the running service
	if err := os.WriteFile(soleArtifact(t, dir), b, 0o644); err != nil {
		t.Fatal(err)
	}
	w := postPlan(t, second.Handler(), fastPlanBody)
	if w.Code != http.StatusOK {
		t.Fatalf("status = %d, body %s", w.Code, w.Body)
	}
	if got := w.Header().Get("X-Lancet-Cache"); got != "miss" {
		t.Errorf("cache state = %q, want miss (corrupt on read)", got)
	}
	if !bytes.Equal(fresh.Body.Bytes(), w.Body.Bytes()) {
		t.Error("recomputed response differs from the original plan")
	}
	if ds := second.Stats().DiskStore; ds.Corrupt != 1 {
		t.Errorf("read-path corruption not counted: %+v", ds)
	}
}

// TestFramedButUnparseablePayloadRecomputed: a checksummed frame whose
// payload isn't a Result of its key's framework passes the codec but must
// still be counted corrupt and recomputed, never served.
func TestFramedButUnparseablePayloadRecomputed(t *testing.T) {
	fresh := postPlan(t, New(Config{}).Handler(), fastPlanBody)
	other, _, err := New(Config{}).resultFor(canonicalBody(t, `{"framework": "deepspeed", "baseline": "none"}`), "deepspeed", nil)
	if err != nil {
		t.Fatal(err)
	}
	key := fastPlanKey(t)
	for _, tc := range []struct{ name, payload string }{
		{"string", `"not a plan result"`},
		{"null", `null`},
		{"result of another framework", string(other.encoded)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			d := &diskStore{dir: dir}
			if err := os.WriteFile(filepath.Join(dir, d.fileName(key)),
				encodeArtifact(key, []byte(tc.payload)), 0o644); err != nil {
				t.Fatal(err)
			}
			svc := openService(t, dir)
			if ds := svc.Stats().DiskStore; ds.Artifacts != 1 {
				t.Fatalf("frame should pass startup validation: %+v", ds)
			}
			w := postPlan(t, svc.Handler(), fastPlanBody)
			if w.Code != http.StatusOK {
				t.Fatalf("status = %d, body %s", w.Code, w.Body)
			}
			if got := w.Header().Get("X-Lancet-Cache"); got != "miss" {
				t.Errorf("cache state = %q, want miss (payload not a raf result)", got)
			}
			if !bytes.Equal(w.Body.Bytes(), fresh.Body.Bytes()) {
				t.Errorf("body differs from a fresh service's\n got %s\nwant %s", w.Body, fresh.Body)
			}
			if svc.Computations() != 1 {
				t.Errorf("computations = %d, want 1", svc.Computations())
			}
			if ds := svc.Stats().DiskStore; ds.Corrupt != 1 || ds.Artifacts != 1 {
				t.Errorf("disk tier %+v, want the payload counted corrupt and its key's artifact rewritten", ds)
			}
		})
	}
}

func TestMemoryEvictionFallsBackToDisk(t *testing.T) {
	// The two-tier contract: an entry evicted from the memory LRU is still
	// served from its disk artifact, not recomputed.
	dir := t.TempDir()
	svc, err := Open(Config{CacheSize: 1}, dir)
	if err != nil {
		t.Fatal(err)
	}
	h := svc.Handler()
	first := postPlan(t, h, fastPlanBody)                            // compute, cached + on disk
	postPlan(t, h, `{"framework": "deepspeed", "baseline": "none"}`) // evicts the raf entry
	w := postPlan(t, h, fastPlanBody)
	if got := w.Header().Get("X-Lancet-Cache"); got != "disk" {
		t.Errorf("evicted entry served as %q, want disk", got)
	}
	if !bytes.Equal(first.Body.Bytes(), w.Body.Bytes()) {
		t.Error("disk-served response differs from the fresh one")
	}
	if got := svc.Computations(); got != 2 {
		t.Errorf("computations = %d, want 2 (disk tier must absorb the eviction)", got)
	}
}

// TestSealedResultGolden pins the sealed encoding of a Result with every
// field set. Disk artifacts store these bytes and a disk hit serves them
// as they are, so a change to Result's JSON encoding must come with a new
// artifact codec version, or stores written before it keep serving the old
// spelling.
func TestSealedResultGolden(t *testing.T) {
	const golden = `{
    "framework": "lancet",
    "name": "Lancet",
    "oom": true,
    "predicted_us": 95521.25,
    "iteration_ms": 205.34,
    "non_overlapped_comm_ms": 12.5,
    "overlap_ms": 2.5e-7,
    "a2a_ms": 48.75,
    "notes": "2 pipelines (k 4,5), dW overlap 1.5 ms, rho 16",
    "pipelines": [
      {
        "start": 0,
        "end": 10,
        "k": 4
      },
      {
        "start": 12,
        "end": 20,
        "k": 5
      }
    ],
    "what_if": {
      "lost_nodes": [
        1,
        3
      ],
      "lost_gpus": 16,
      "survivor_gpus": 16,
      "intact_ms": 205.34,
      "degraded_ms": 410.5,
      "replanned_ms": 250.25,
      "degraded_slowdown": 2,
      "replan_speedup": 1.64,
      "replan_dp_evaluations": 120,
      "cold_dp_evaluations": 483
    }
  }`
	r := Result{
		Framework: "lancet", Name: "Lancet", OOM: true, PredictedUs: 95521.25, IterationMs: 205.34,
		NonOverlappedCommMs: 12.5, OverlapMs: 2.5e-7, AllToAllMs: 48.75,
		Notes:     "2 pipelines (k 4,5), dW overlap 1.5 ms, rho 16",
		Pipelines: []lancet.PipelineHint{{Start: 0, End: 10, K: 4}, {Start: 12, End: 20, K: 5}},
		WhatIf: &WhatIfResult{LostNodes: []int{1, 3}, LostGPUs: 16, SurvivorGPUs: 16, IntactMs: 205.34,
			DegradedMs: 410.5, ReplannedMs: 250.25, DegradedSlowdown: 2, ReplanSpeedup: 1.64,
			ReplanDPEvaluations: 120, ColdDPEvaluations: 483},
		evaluations: 7,
	}
	if err := r.seal(); err != nil {
		t.Fatal(err)
	}
	if string(r.encoded) != golden {
		t.Errorf("Result's sealed encoding changed. Disk artifacts store these bytes and serve them as they are: "+
			"bump artifactVersion in artifact.go (version %d now), then update this golden.\n got %s\nwant %s",
			artifactVersion, r.encoded, golden)
	}
}

// TestVersion1StoreIsRecomputed upgrades a store written by codec version
// 1, whose payload was json.Marshal(result): the artifact is counted
// corrupt at open and on read, never served, recomputed, and overwritten
// by a version-2 artifact that a restart serves from disk.
func TestVersion1StoreIsRecomputed(t *testing.T) {
	fresh := New(Config{})
	want := postPlan(t, fresh.Handler(), fastPlanBody)
	key := fastPlanKey(t)
	res, ok := fresh.plans.Get(key)
	if want.Code != http.StatusOK || !ok {
		t.Fatalf("status %d, stored %t: %s", want.Code, ok, want.Body)
	}
	compact, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	v1 := encodeArtifact(key, compact)
	binary.BigEndian.PutUint32(v1[len(artifactMagic):], 1)
	binary.BigEndian.PutUint32(v1[len(v1)-4:], crc32.ChecksumIEEE(v1[:len(v1)-4]))
	dir := t.TempDir()
	path := filepath.Join(dir, (&diskStore{}).fileName(key))
	if err := os.WriteFile(path, v1, 0o644); err != nil {
		t.Fatal(err)
	}

	svc := openService(t, dir)
	if ds := svc.Stats().DiskStore; ds.Corrupt != 1 || ds.Artifacts != 0 {
		t.Errorf("open counted %d corrupt, restored %d; want 1, 0", ds.Corrupt, ds.Artifacts)
	}
	w := postPlan(t, svc.Handler(), fastPlanBody)
	if got := w.Header().Get("X-Lancet-Cache"); w.Code != http.StatusOK || got != "miss" {
		t.Fatalf("status %d, cache state %q, want a 200 miss: %s", w.Code, got, w.Body)
	}
	if !bytes.Equal(w.Body.Bytes(), want.Body.Bytes()) {
		t.Errorf("recomputed body differs from a fresh service's\n got %s\nwant %s", w.Body, want.Body)
	}
	if ds := svc.Stats().DiskStore; ds.Corrupt != 2 || ds.Artifacts != 1 {
		t.Errorf("after the request %d corrupt, %d artifacts; want 2 (open and read), 1", ds.Corrupt, ds.Artifacts)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if gotKey, payload, err := decodeArtifact(b); err != nil || gotKey != key || !bytes.Equal(payload, res.encoded) {
		t.Errorf("the repaired artifact is not version %d holding the sealed result: key %q, err %v\n%s",
			artifactVersion, gotKey, err, payload)
	}

	reopened := openService(t, dir)
	w = postPlan(t, reopened.Handler(), fastPlanBody)
	if got := w.Header().Get("X-Lancet-Cache"); got != "disk" || !bytes.Equal(w.Body.Bytes(), want.Body.Bytes()) {
		t.Errorf("after a restart: cache state %q, body equal %t; want disk, true", got, bytes.Equal(w.Body.Bytes(), want.Body.Bytes()))
	}
}
