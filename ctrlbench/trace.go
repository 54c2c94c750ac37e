package main

import (
	"bufio"
	"encoding/json"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"mlcd/internal/cloud"
	"mlcd/internal/faultfs"
	"mlcd/internal/fleetprior"
	"mlcd/internal/obs"
	"mlcd/internal/profiler"
	"mlcd/internal/search"
	"mlcd/internal/workload"
)

// tracer is the state of one traced pass. It reaches into the program
// only through public hooks: a timing faultfs.FS (ServerConfig.FS), a
// profiler middleware (ServerConfig.ProfilerMiddleware) and a searcher
// wrapper (mlcdsys.Config.Searcher). Everything is kept in memory and
// written out when the run ends.
type tracer struct {
	epoch time.Time
	fs    *timingFS

	mu       sync.Mutex
	searches map[string][]searchRec // by job identity, in start order
	probes   map[string][]interval  // by job identity
	spans    []span
	nextSpan int64
}

// interval is one timed call.
type interval struct{ start, end time.Time }

func (iv interval) dur() time.Duration { return iv.end.Sub(iv.start) }

// searchRec is one Search call seen by the wrapper.
type searchRec struct {
	interval
	warm int // observations passed to WithWarmStart
}

// span is one recorded stage of one job.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Name   string `json:"name"`
	Job    string `json:"job,omitempty"`
	Start  int64  `json:"start_ns"` // since the pass began
	End    int64  `json:"end_ns"`
}

func newTracer(root string) *tracer {
	return &tracer{
		epoch:    time.Now(),
		fs:       &timingFS{inner: faultfs.OS{}, root: root},
		searches: make(map[string][]searchRec),
		probes:   make(map[string][]interval),
	}
}

// addSpan records a span and returns its ID.
func (t *tracer) addSpan(parent int64, name, job string, iv interval) int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.nextSpan++
	t.spans = append(t.spans, span{
		ID: t.nextSpan, Parent: parent, Name: name, Job: job,
		Start: int64(iv.start.Sub(t.epoch)), End: int64(iv.end.Sub(t.epoch)),
	})
	return t.nextSpan
}

// searchesOf returns every recorded Search of a job identity.
func (t *tracer) searchesOf(key string) []searchRec {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]searchRec(nil), t.searches[key]...)
}

// forgetJobs drops the per-identity records before a round that reuses
// the same identities.
func (t *tracer) forgetJobs() {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.searches = make(map[string][]searchRec)
	t.probes = make(map[string][]interval)
}

// probesOf returns the measured probes of a job identity.
func (t *tracer) probesOf(key string) []interval {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]interval(nil), t.probes[key]...)
}

// writeSpans writes every span as one JSON object per line.
func (t *tracer) writeSpans(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			_ = f.Close()
			return err
		}
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		_ = f.Close()
		return err
	}
	return f.Close()
}

// wrapSearcher wraps the deployment engine so every Search is timed
// against the job identity it searches.
func (t *tracer) wrapSearcher(inner search.Searcher) search.Searcher {
	return tracedSearcher{inner: inner, t: t}
}

// tracedSearcher forwards WithWarmStart, WithFleetPrior and WithTracer
// to the wrapped engine, so the wrapper changes no decision; it only
// remembers how many warm-start observations the job brought.
type tracedSearcher struct {
	inner search.Searcher
	t     *tracer
	warm  int
}

func (s tracedSearcher) Name() string { return s.inner.Name() }

func (s tracedSearcher) Search(j workload.Job, space *cloud.Space, scen search.Scenario, cons search.Constraints, prof profiler.Profiler) (search.Outcome, error) {
	start := time.Now()
	out, err := s.inner.Search(j, space, scen, cons, prof)
	rec := searchRec{interval: interval{start, time.Now()}, warm: s.warm}
	s.t.mu.Lock()
	s.t.searches[j.Name] = append(s.t.searches[j.Name], rec)
	s.t.mu.Unlock()
	return out, err
}

func (s tracedSearcher) WithWarmStart(o []search.Observation) search.Searcher {
	ws, ok := s.inner.(search.WarmStarter)
	if !ok {
		return s
	}
	return tracedSearcher{inner: ws.WithWarmStart(o), t: s.t, warm: len(o)}
}

func (s tracedSearcher) WithFleetPrior(p *fleetprior.Prior) search.Searcher {
	fp, ok := s.inner.(search.FleetPriorStarter)
	if !ok {
		return s
	}
	return tracedSearcher{inner: fp.WithFleetPrior(p), t: s.t, warm: s.warm}
}

func (s tracedSearcher) WithTracer(sink obs.EventSink) search.Searcher {
	tr, ok := s.inner.(search.Traceable)
	if !ok {
		return s
	}
	return tracedSearcher{inner: tr.WithTracer(sink), t: s.t, warm: s.warm}
}

// wrapProfiler is the profiler middleware: it sits inside the shared
// cache, so it times real measurements only.
func (t *tracer) wrapProfiler(inner profiler.Profiler) profiler.Profiler {
	return timedProfiler{inner: inner, t: t}
}

type timedProfiler struct {
	inner profiler.Profiler
	t     *tracer
}

func (p timedProfiler) record(j workload.Job, start time.Time) {
	iv := interval{start, time.Now()}
	p.t.mu.Lock()
	p.t.probes[j.Name] = append(p.t.probes[j.Name], iv)
	p.t.mu.Unlock()
}

func (p timedProfiler) Profile(j workload.Job, d cloud.Deployment) profiler.Result {
	start := time.Now()
	res := p.inner.Profile(j, d)
	p.record(j, start)
	return res
}

// ProfileAt keeps sub-sampled probes sub-sampled through the wrapper.
func (p timedProfiler) ProfileAt(j workload.Job, d cloud.Deployment, f float64) profiler.Result {
	start := time.Now()
	res := profiler.ProbeAt(p.inner, j, d, f)
	p.record(j, start)
	return res
}

// fsCounts is a snapshot of the timing filesystem's counters.
type fsCounts struct {
	syncs, syncNS     int64
	writes, writeNS   int64
	writeBytes        int64
	readNS, readBytes int64
	creates           int64 // OpenFile calls with O_CREATE
	outside           int64 // files opened for writing outside root
}

func (a fsCounts) add(b fsCounts) fsCounts {
	return fsCounts{
		syncs: a.syncs + b.syncs, syncNS: a.syncNS + b.syncNS,
		writes: a.writes + b.writes, writeNS: a.writeNS + b.writeNS,
		writeBytes: a.writeBytes + b.writeBytes,
		readNS:     a.readNS + b.readNS, readBytes: a.readBytes + b.readBytes,
		creates: a.creates + b.creates, outside: a.outside + b.outside,
	}
}

func (a fsCounts) sub(b fsCounts) fsCounts {
	return fsCounts{
		syncs: a.syncs - b.syncs, syncNS: a.syncNS - b.syncNS,
		writes: a.writes - b.writes, writeNS: a.writeNS - b.writeNS,
		writeBytes: a.writeBytes - b.writeBytes,
		readNS:     a.readNS - b.readNS, readBytes: a.readBytes - b.readBytes,
		creates: a.creates - b.creates, outside: a.outside - b.outside,
	}
}

// timingFS counts and times every journal operation, and flags any file
// opened for writing outside root (the RAM-backed directory).
type timingFS struct {
	inner faultfs.FS
	root  string

	syncs, syncNS     atomic.Int64
	writes, writeNS   atomic.Int64
	writeBytes        atomic.Int64
	readNS, readBytes atomic.Int64
	creates, outside  atomic.Int64
}

func (f *timingFS) counts() fsCounts {
	return fsCounts{
		syncs: f.syncs.Load(), syncNS: f.syncNS.Load(),
		writes: f.writes.Load(), writeNS: f.writeNS.Load(),
		writeBytes: f.writeBytes.Load(),
		readNS:     f.readNS.Load(), readBytes: f.readBytes.Load(),
		creates: f.creates.Load(), outside: f.outside.Load(),
	}
}

func (f *timingFS) OpenFile(name string, flag int, perm fs.FileMode) (faultfs.File, error) {
	if flag&(os.O_WRONLY|os.O_RDWR|os.O_CREATE) != 0 && !within(f.root, name) {
		f.outside.Add(1)
	}
	if flag&os.O_CREATE != 0 {
		f.creates.Add(1)
	}
	h, err := f.inner.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return &timingFile{File: h, fs: f}, nil
}

func (f *timingFS) Open(name string) (faultfs.File, error) {
	h, err := f.inner.Open(name)
	if err != nil {
		return nil, err
	}
	return &timingFile{File: h, fs: f}, nil
}

func (f *timingFS) ReadFile(name string) ([]byte, error) {
	t0 := time.Now()
	b, err := f.inner.ReadFile(name)
	f.readNS.Add(int64(time.Since(t0)))
	f.readBytes.Add(int64(len(b)))
	return b, err
}

func (f *timingFS) ReadDir(dir string) ([]string, error) { return f.inner.ReadDir(dir) }
func (f *timingFS) Rename(oldpath, newpath string) error { return f.inner.Rename(oldpath, newpath) }
func (f *timingFS) Remove(name string) error             { return f.inner.Remove(name) }
func (f *timingFS) MkdirAll(path string, perm fs.FileMode) error {
	if !within(f.root, path) {
		f.outside.Add(1)
	}
	return f.inner.MkdirAll(path, perm)
}

// within reports whether path lies under root.
func within(root, path string) bool {
	rel, err := filepath.Rel(root, path)
	return err == nil && rel != ".." && !strings.HasPrefix(rel, ".."+string(filepath.Separator))
}

type timingFile struct {
	faultfs.File
	fs *timingFS
}

func (h *timingFile) Write(p []byte) (int, error) {
	t0 := time.Now()
	n, err := h.File.Write(p)
	h.fs.writeNS.Add(int64(time.Since(t0)))
	h.fs.writes.Add(1)
	h.fs.writeBytes.Add(int64(n))
	return n, err
}

func (h *timingFile) Read(p []byte) (int, error) {
	t0 := time.Now()
	n, err := h.File.Read(p)
	h.fs.readNS.Add(int64(time.Since(t0)))
	h.fs.readBytes.Add(int64(n))
	return n, err
}

func (h *timingFile) ReadAt(p []byte, off int64) (int, error) {
	t0 := time.Now()
	n, err := h.File.ReadAt(p, off)
	h.fs.readNS.Add(int64(time.Since(t0)))
	h.fs.readBytes.Add(int64(n))
	return n, err
}

func (h *timingFile) Sync() error {
	t0 := time.Now()
	err := h.File.Sync()
	h.fs.syncNS.Add(int64(time.Since(t0)))
	h.fs.syncs.Add(1)
	return err
}

// checkOutside fails the pass if any journal file was opened for
// writing outside the RAM-backed directory.
func checkOutside(res *passResult, t *tracer) {
	if n := t.fs.counts().outside; n > 0 {
		res.problem("%d journal files opened for writing outside the RAM-backed directory %s", n, t.fs.root)
	}
}
