package obs

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// Span is one timed stage of a navigation step. Spans form a tree rooted
// by StartTrace; StartSpan attaches children through the context. Tracing
// is strictly opt-in: on a context without a trace, StartSpan returns a
// nil span whose methods all no-op, so instrumented code pays only a
// context lookup when tracing is off.
//
// A span is written by the goroutine that started it; child registration
// is mutex-guarded so parallel stages may attach concurrently.
type Span struct {
	name  string
	start time.Time
	dur   time.Duration

	// root points at the trace root (itself for roots), so any span can
	// reach the trace ID without walking parents. Set at creation, never
	// mutated.
	root *Span
	// id is the trace ID; set on roots only, by StartTrace (generated) or
	// SetTraceID (the web middleware stamping its request ID) before any
	// concurrent child activity.
	id string

	mu sync.Mutex
	// attrs and children are appended during the span's lifetime;
	// guarded by mu.
	attrs    []Attr
	children []*Span
}

// Attr is one key/value annotation on a span (result cardinality,
// suggestion counts, analyst names).
type Attr struct {
	Key   string
	Value string
}

type spanKey struct{}

// Trace IDs are a per-process random prefix plus an atomic sequence
// number — unique enough to join a captured trace against access-log
// lines and histogram exemplars, and cheap enough to mint per trace.
var (
	traceIDPrefix = func() string {
		b := make([]byte, 4)
		if _, err := rand.Read(b); err != nil {
			return "00000000"
		}
		return hex.EncodeToString(b)
	}()
	traceIDSeq atomic.Uint64
)

func newTraceID() string {
	return traceIDPrefix + "-" + strconv.FormatUint(traceIDSeq.Add(1), 10)
}

// StartTrace returns a context carrying a new root span with a freshly
// minted trace ID. Everything started from the returned context via
// StartSpan becomes part of the tree. Call End on the root before
// rendering or recording it.
func StartTrace(ctx context.Context, name string) (context.Context, *Span) {
	sp := &Span{name: name, start: time.Now(), id: newTraceID()}
	sp.root = sp
	return context.WithValue(ctx, spanKey{}, sp), sp
}

// StartSpan starts a child span if ctx carries a trace, returning the
// child context and span; otherwise it returns ctx unchanged and a nil
// span (all Span methods are nil-safe).
func StartSpan(ctx context.Context, name string) (context.Context, *Span) {
	parent, _ := ctx.Value(spanKey{}).(*Span)
	if parent == nil {
		return ctx, nil
	}
	sp := &Span{name: name, start: time.Now(), root: parent.root}
	parent.mu.Lock()
	parent.children = append(parent.children, sp)
	parent.mu.Unlock()
	return context.WithValue(ctx, spanKey{}, sp), sp
}

// StartAlways starts a child span when ctx already carries a trace, or a
// new trace root otherwise. The returned bool reports root ownership: the
// caller that got true is responsible for handing the ended span to a
// Recorder — this is how navigation steps are captured even outside a web
// request (magnet-eval, the CLI, tests).
func StartAlways(ctx context.Context, name string) (context.Context, *Span, bool) {
	if sctx, sp := StartSpan(ctx, name); sp != nil {
		return sctx, sp, false
	}
	sctx, sp := StartTrace(ctx, name)
	return sctx, sp, true
}

// FromContext returns the current span (nil when tracing is off).
func FromContext(ctx context.Context) *Span {
	sp, _ := ctx.Value(spanKey{}).(*Span)
	return sp
}

// TraceID returns the trace ID of the trace ctx runs under ("" when
// tracing is off) — the key histogram exemplars and the flight recorder
// share with the access log.
func TraceID(ctx context.Context) string {
	return FromContext(ctx).Root().ID()
}

// Root returns the trace root of the span's tree (nil for nil).
func (s *Span) Root() *Span {
	if s == nil {
		return nil
	}
	return s.root
}

// IsRoot reports whether s is a trace root.
func (s *Span) IsRoot() bool { return s != nil && s.root == s }

// ID returns the span's trace ID ("" for nil or non-root spans).
func (s *Span) ID() string {
	if s == nil {
		return ""
	}
	return s.id
}

// SetTraceID overwrites the root's generated trace ID — the web
// middleware stamps its request ID here so access-log lines, error pages
// and captured traces join on one key. It must be called on the root
// before any concurrent child activity; no-op on nil or non-root spans.
func (s *Span) SetTraceID(id string) {
	if s == nil || s.root != s {
		return
	}
	s.id = id
}

// End fixes the span's duration. Safe on nil and idempotent enough for
// deferred use (a second End overwrites with a longer duration).
func (s *Span) End() {
	if s == nil {
		return
	}
	s.dur = time.Since(s.start)
}

// Name returns the span's name ("" for nil).
func (s *Span) Name() string {
	if s == nil {
		return ""
	}
	return s.name
}

// Duration returns the span's duration (zero before End).
func (s *Span) Duration() time.Duration {
	if s == nil {
		return 0
	}
	return s.dur
}

// SetAttr annotates the span; no-op on nil.
func (s *Span) SetAttr(key, value string) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.attrs = append(s.attrs, Attr{key, value})
	s.mu.Unlock()
}

// SetInt annotates the span with an integer value; no-op on nil.
func (s *Span) SetInt(key string, v int) {
	s.SetAttr(key, strconv.Itoa(v))
}

// Attrs returns a copy of the span's annotations.
func (s *Span) Attrs() []Attr {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]Attr, len(s.attrs))
	copy(out, s.attrs)
	return out
}

// Children returns a copy of the span's direct children.
func (s *Span) Children() []*Span {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]*Span, len(s.children))
	copy(out, s.children)
	return out
}

// Count returns the number of spans in the tree rooted at s (0 for nil).
func (s *Span) Count() int {
	if s == nil {
		return 0
	}
	n := 1
	for _, c := range s.Children() {
		n += c.Count()
	}
	return n
}
