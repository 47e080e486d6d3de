package obs

import (
	"context"
	"strings"
	"testing"
	"time"
)

// TestFreezeStructure pins the flattening: pre-order, Depth per nesting
// level, Offset relative to the trace start, attrs copied.
func TestFreezeStructure(t *testing.T) {
	ctx, root := StartTrace(context.Background(), "navigation-step")
	c1ctx, c1 := StartSpan(ctx, "session.query")
	c1.SetInt("items", 7)
	_, g1 := StartSpan(c1ctx, "query.eval")
	g1.End()
	c1.End()
	_, c2 := StartSpan(ctx, "session.pane")
	c2.End()
	root.End()

	rec := Freeze(root)
	if rec.ID != root.ID() || rec.Name != "navigation-step" || rec.Dur != root.Duration() {
		t.Fatalf("record header = %+v, want id=%s name=navigation-step dur=%v", rec, root.ID(), root.Duration())
	}
	names := []string{"navigation-step", "session.query", "query.eval", "session.pane"}
	depths := []int{0, 1, 2, 1}
	if len(rec.Spans) != len(names) {
		t.Fatalf("frozen %d spans, want %d: %+v", len(rec.Spans), len(names), rec.Spans)
	}
	for i, sp := range rec.Spans {
		if sp.Name != names[i] || sp.Depth != depths[i] {
			t.Errorf("span %d = %s@%d, want %s@%d", i, sp.Name, sp.Depth, names[i], depths[i])
		}
		if sp.Offset < 0 || sp.Offset > rec.Dur {
			t.Errorf("span %d offset %v outside [0, %v]", i, sp.Offset, rec.Dur)
		}
	}
	if len(rec.Spans[1].Attrs) != 1 || rec.Spans[1].Attrs[0] != (Attr{"items", "7"}) {
		t.Errorf("session.query attrs = %+v, want items=7", rec.Spans[1].Attrs)
	}
	if len(rec.Spans) != 4 {
		t.Errorf("spans = %d, want 4", len(rec.Spans))
	}
}

func TestStageDurations(t *testing.T) {
	rec := &TraceRecord{Spans: []SpanRecord{
		{Name: "root", Depth: 0, Dur: 10 * time.Millisecond},
		{Name: "a", Depth: 1, Dur: 3 * time.Millisecond},
		{Name: "a.inner", Depth: 2, Dur: 2 * time.Millisecond},
		{Name: "b", Depth: 1, Dur: 4 * time.Millisecond},
	}}
	if got := rec.StageDurations(); got != 7*time.Millisecond {
		t.Errorf("StageDurations = %v, want 7ms (depth-1 spans only)", got)
	}
}

// TestWriteTreeSharedRenderer: a live span tree renders through its frozen
// record — the single renderer magnet-eval -trace and /debug/traces share.
func TestWriteTreeSharedRenderer(t *testing.T) {
	ctx, root := StartTrace(context.Background(), "step")
	_, c := StartSpan(ctx, "child")
	c.SetAttr("k", "v")
	c.End()
	root.End()

	var out strings.Builder
	Freeze(root).WriteTree(&out)
	if !strings.Contains(out.String(), "step") || !strings.Contains(out.String(), "  child") ||
		!strings.Contains(out.String(), "k=v") {
		t.Errorf("tree rendering:\n%s", out.String())
	}
}

func TestFreezeNil(t *testing.T) {
	if Freeze(nil) != nil {
		t.Error("Freeze(nil) != nil")
	}
	var r *TraceRecord
	if r.StageDurations() != 0 {
		t.Error("nil TraceRecord accessors not zero")
	}
	r.WriteTree(&strings.Builder{}) // must not panic
}

func TestTraceIDs(t *testing.T) {
	ctx, root := StartTrace(context.Background(), "r")
	cctx, child := StartSpan(ctx, "c")
	if root.ID() == "" || !root.IsRoot() {
		t.Fatalf("root id=%q isRoot=%v", root.ID(), root.IsRoot())
	}
	if child.ID() != "" || child.IsRoot() {
		t.Errorf("child id=%q isRoot=%v, want unset non-root", child.ID(), child.IsRoot())
	}
	if child.Root() != root {
		t.Error("child.Root() != root")
	}
	if got := TraceID(cctx); got != root.ID() {
		t.Errorf("TraceID(child ctx) = %q, want root's %q", got, root.ID())
	}
	if got := TraceID(context.Background()); got != "" {
		t.Errorf("TraceID(no trace) = %q, want empty", got)
	}

	// The web middleware stamps its request ID over the generated one.
	root.SetTraceID("req-42")
	if root.ID() != "req-42" || TraceID(cctx) != "req-42" {
		t.Errorf("after SetTraceID: root=%q ctx=%q", root.ID(), TraceID(cctx))
	}
	child.SetTraceID("nope") // non-root: no-op
	if child.ID() != "" || root.ID() != "req-42" {
		t.Error("SetTraceID on a non-root mutated something")
	}

	_, other := StartTrace(context.Background(), "r2")
	if other.ID() == root.ID() {
		t.Error("two traces share an ID")
	}
}

func TestStartAlways(t *testing.T) {
	// Without an ambient trace: a fresh root the caller owns.
	ctx, sp, owned := StartAlways(context.Background(), "step")
	if !owned || !sp.IsRoot() || sp.ID() == "" {
		t.Fatalf("StartAlways bare = owned=%v root=%v id=%q", owned, sp.IsRoot(), sp.ID())
	}
	if TraceID(ctx) != sp.ID() {
		t.Error("returned ctx does not carry the new root")
	}

	// Under an existing trace: a child, not owned.
	tctx, root := StartTrace(context.Background(), "outer")
	_, child, owned := StartAlways(tctx, "step")
	if owned || child.IsRoot() || child.Root() != root {
		t.Errorf("StartAlways nested = owned=%v root=%v", owned, child.IsRoot())
	}
}
