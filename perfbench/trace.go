package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"hvac"
	"hvac/internal/transport"
)

// span is one timed call at a layer boundary. Times are nanoseconds
// since the recorder's start; parent 0 marks a root.
type span struct {
	id, parent uint64
	name       string
	start, end int64
}

func (s span) interval() interval { return interval{s.start, s.end} }
func (s span) dur() time.Duration { return time.Duration(s.end - s.start) }

// Span names, one per layer boundary the benchmark times.
const (
	spanStep        = "loader.step"
	spanReadAll     = "core.client.readall"
	spanReadBatch   = "core.client.readbatch"
	spanInstallPlan = "core.client.installplan"
	spanSimRun      = "train.run"
	spanSimStep     = "train.step"
)

// recorder keeps spans in memory until the run ends. A nil *recorder
// records nothing, so untraced runs share the traced code path.
type recorder struct {
	t0    time.Time
	ids   atomic.Uint64
	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

// now returns the recorder clock, 0 when not recording.
func (r *recorder) now() int64 {
	if r == nil {
		return 0
	}
	return int64(time.Since(r.t0))
}

// newID reserves a span id, 0 when not recording.
func (r *recorder) newID() uint64 {
	if r == nil {
		return 0
	}
	return r.ids.Add(1)
}

// add records a finished span.
func (r *recorder) add(s span) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.spans = append(r.spans, s)
	r.mu.Unlock()
}

// record times fn as span id named name under parent.
func (r *recorder) record(name string, id, parent uint64, fn func()) {
	if r == nil {
		fn()
		return
	}
	start := r.now()
	fn()
	r.add(span{id: id, parent: parent, name: name, start: start, end: r.now()})
}

// snapshot returns the spans recorded so far.
func (r *recorder) snapshot() []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...)
}

// write stores the spans as text, one per line:
// id parent name start_ns end_ns.
func (r *recorder) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	for _, s := range r.snapshot() {
		fmt.Fprintf(w, "%d %d %s %d %d\n", s.id, s.parent, s.name, s.start, s.end)
	}
	if err := w.Flush(); err != nil {
		_ = f.Close() // the flush error is the one to report
		return err
	}
	return f.Close()
}

// opSpan names the transport span of each RPC op.
var opSpan = map[transport.Op]string{
	transport.OpOpen:      "transport.open",
	transport.OpRead:      "transport.read",
	transport.OpClose:     "transport.close",
	transport.OpReadBatch: "transport.batch",
	transport.OpPlan:      "transport.plan",
	transport.OpReadAt:    "transport.readat",
	transport.OpPrefetch:  "transport.prefetch",
	transport.OpStat:      "transport.stat",
	transport.OpPing:      "transport.ping",
}

// tracedLink is the ClientConfig.DialTransport decorator: it records
// one span per RPC, parented to the client call in progress on the
// owning client (cur), and counts link errors.
type tracedLink struct {
	inner  *transport.Client
	rec    *recorder
	cur    *atomic.Uint64
	errors *atomic.Int64
}

func (l *tracedLink) Call(req *transport.Request) (*transport.Response, error) {
	start := l.rec.now()
	resp, err := l.inner.Call(req)
	l.rec.add(span{id: l.rec.newID(), parent: l.cur.Load(), name: opSpan[req.Op], start: start, end: l.rec.now()})
	if err != nil {
		l.errors.Add(1)
	}
	return resp, err
}

func (l *tracedLink) Addr() string   { return l.inner.Addr() }
func (l *tracedLink) Close()         { l.inner.Close() }
func (l *tracedLink) Retries() int64 { return l.inner.Retries() }

// clientOptions are the transport options core.NewClient builds from a
// ClientConfig when DialTransport is nil, so the decorated links behave
// like the client's own.
func clientOptions(cfg hvac.ClientConfig) transport.ClientOptions {
	return transport.ClientOptions{
		CallTimeout: cfg.CallTimeout,
		Retry: transport.RetryPolicy{
			MaxAttempts: cfg.RetryAttempts,
			BaseDelay:   cfg.RetryBaseDelay,
			Seed:        cfg.RetrySeed,
		},
		PoolSize: cfg.PoolSize,
	}
}
