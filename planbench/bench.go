package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path"
	"strconv"
	"strings"
	"sync"
	"time"

	"lancet/internal/service"
)

// bench is one run's shared state: the service under test, the plan-store
// directory it was opened on, the tracer (nil when untraced) and the
// failures the run's checks found.
type bench struct {
	seed     int64
	work     string    // scratch directory inside the checkout; removed at exit
	deadline time.Time // measured phases stop here, so the process ends in time
	tr       *tracer

	svc *service.Service
	h   http.Handler
	dir string

	mu       sync.Mutex
	failures []string
	failed   int // ops that failed a status or output check
}

// fail records a failed op with its reason.
func (b *bench) fail(format string, args ...any) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.failed++
	if len(b.failures) < 20 {
		b.failures = append(b.failures, fmt.Sprintf(format, args...))
	}
}

// problem records a check failure that is not tied to one op (a traffic
// tally that disagrees with /v1/stats, say): it fails the run without
// counting an op.
func (b *bench) problem(format string, args ...any) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.failures = append(b.failures, fmt.Sprintf(format, args...))
}

// open starts a service: memory-only when dir is "" (service.New, as
// lancet-serve runs without -store-dir), otherwise on a plan-store
// directory, restoring whatever is there. When tracing, service.Open is a
// service.open span tagged "restore" when it restored artifacts and
// "empty" otherwise.
func (b *bench) open(cfg service.Config, dir string) error {
	if dir == "" {
		svc := service.New(cfg)
		b.svc, b.h, b.dir = svc, svc.Handler(), ""
		return nil
	}
	var start int64
	if b.tr != nil {
		start = b.tr.now()
	}
	svc, err := service.Open(cfg, dir)
	if err != nil {
		return fmt.Errorf("open plan store: %w", err)
	}
	if b.tr != nil {
		s := span{Name: "service.open", Op: -1, Start: start, End: b.tr.now(), Cache: "empty"}
		if ds := svc.Stats().DiskStore; ds != nil && ds.Artifacts > 0 {
			s.Cache = "restore"
		}
		b.tr.add(s)
	}
	b.svc, b.h, b.dir = svc, svc.Handler(), dir
	return nil
}

// closeService stops the service's background work and deletes its store.
func (b *bench) closeService() {
	if b.svc == nil {
		return
	}
	b.svc.Close()
	os.RemoveAll(b.dir) //nolint:errcheck // scratch; the whole work dir goes at exit
	b.svc, b.h, b.dir = nil, nil, ""
}

// storeDir returns a fresh, empty plan-store directory.
func (b *bench) storeDir() (string, error) {
	return os.MkdirTemp(b.work, "store-")
}

// recorder is a reusable http.ResponseWriter that keeps the status, the
// headers and the body of one response.
type recorder struct {
	hdr  http.Header
	code int
	body bytes.Buffer
}

func newRecorder() *recorder { return &recorder{hdr: make(http.Header)} }

func (r *recorder) Header() http.Header { return r.hdr }

func (r *recorder) Write(p []byte) (int, error) {
	if r.code == 0 {
		r.code = http.StatusOK
	}
	return r.body.Write(p)
}

func (r *recorder) WriteHeader(code int) {
	if r.code == 0 {
		r.code = code
	}
}

func (r *recorder) reset() {
	clear(r.hdr)
	r.code = 0
	r.body.Reset()
}

// serve sends one POST to the in-process handler, the way cmd/lancet-load
// drives it, and returns the handler call's start and wall time.
func (b *bench) serve(rec *recorder, path string, body []byte) (time.Time, time.Duration, error) {
	req, err := http.NewRequest(http.MethodPost, "http://planbench"+path, bytes.NewReader(body))
	if err != nil {
		return time.Time{}, 0, err
	}
	rec.reset()
	start := time.Now()
	b.h.ServeHTTP(rec, req)
	return start, time.Since(start), nil
}

// rootSpan records an op's handler call when tracing, as a span named
// after the endpoint: service.plan or service.routing.
func (b *bench) rootSpan(op int, endpoint, cache string, start time.Time, lat time.Duration) {
	if b.tr == nil {
		return
	}
	s := int64(start.Sub(b.tr.epoch))
	b.tr.add(span{Name: "service." + path.Base(endpoint), Op: op, Start: s, End: s + int64(lat),
		Endpoint: endpoint, Cache: cache})
}

// compactJSON returns raw with insignificant whitespace removed, so a
// result embedded in an indented response compares byte for byte with a
// freshly marshaled one.
func compactJSON(raw []byte) []byte {
	var buf bytes.Buffer
	if err := json.Compact(&buf, raw); err != nil {
		return raw
	}
	return buf.Bytes()
}

// rssSampler reads the process's resident set at a fixed interval until
// stopped.
type rssSampler struct {
	stop chan struct{}
	done chan struct{}
	mb   []float64
	err  error
}

func startRSS(interval time.Duration) *rssSampler {
	s := &rssSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			mb, err := readRSSMB()
			if err != nil {
				s.err = err
				return
			}
			s.mb = append(s.mb, mb)
			select {
			case <-s.stop:
				return
			case <-t.C:
			}
		}
	}()
	return s
}

// finish stops the sampler, waits for it and returns its samples.
func (s *rssSampler) finish() ([]float64, error) {
	close(s.stop)
	<-s.done
	return s.mb, s.err
}

// readRSSMB reads the resident set size from /proc/self/statm.
func readRSSMB() (float64, error) {
	f, err := os.Open("/proc/self/statm")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	line, err := bufio.NewReader(f).ReadString('\n')
	if err != nil {
		return 0, err
	}
	fields := strings.Fields(line)
	if len(fields) < 2 {
		return 0, fmt.Errorf("short /proc/self/statm: %q", line)
	}
	pages, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return 0, err
	}
	return float64(pages*int64(os.Getpagesize())) / (1 << 20), nil
}
