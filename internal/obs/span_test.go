package obs

import (
	"context"
	"strings"
	"testing"
)

// TestSpanTreeAssembly checks that StartSpan attaches children through the
// context and the tree survives assembly from nested calls.
func TestSpanTreeAssembly(t *testing.T) {
	ctx, root := StartTrace(context.Background(), "step")
	if FromContext(ctx) == nil {
		t.Fatal("no trace in the context under StartTrace")
	}

	qctx, q := StartSpan(ctx, "query")
	_, p := StartSpan(qctx, "pred")
	p.SetInt("results", 42)
	p.End()
	q.End()

	_, pane := StartSpan(ctx, "pane")
	pane.SetAttr("advisor", "related items")
	pane.End()
	root.End()

	if got := root.Count(); got != 4 {
		t.Errorf("Count() = %d, want 4", got)
	}
	kids := root.Children()
	if len(kids) != 2 || kids[0].Name() != "query" || kids[1].Name() != "pane" {
		t.Fatalf("root children = %v", kids)
	}
	grand := kids[0].Children()
	if len(grand) != 1 || grand[0].Name() != "pred" {
		t.Fatalf("query children = %v", grand)
	}
	attrs := grand[0].Attrs()
	if len(attrs) != 1 || attrs[0] != (Attr{"results", "42"}) {
		t.Errorf("pred attrs = %v", attrs)
	}
	if root.Duration() <= 0 {
		t.Error("root duration not set by End")
	}

	var sb strings.Builder
	Freeze(root).WriteTree(&sb)
	out := sb.String()
	for _, want := range []string{"step", "  query", "    pred", "results=42", "  pane", "advisor=related items"} {
		if !strings.Contains(out, want) {
			t.Errorf("WriteTree output missing %q:\n%s", want, out)
		}
	}
}

// TestSpanDisabled pins the opt-in contract: without StartTrace every span
// operation is a nil-safe no-op and the context is returned unchanged.
func TestSpanDisabled(t *testing.T) {
	ctx := context.Background()
	ctx2, sp := StartSpan(ctx, "query")
	if sp != nil {
		t.Fatal("StartSpan returned a span without a trace")
	}
	if ctx2 != ctx {
		t.Error("StartSpan changed the context without a trace")
	}
	// All methods must be nil-safe.
	sp.SetAttr("k", "v")
	sp.SetInt("n", 1)
	sp.End()
	if sp.Name() != "" || sp.Duration() != 0 || sp.Count() != 0 {
		t.Error("nil span leaked state")
	}
	if sp.Attrs() != nil || sp.Children() != nil {
		t.Error("nil span returned attrs/children")
	}
	var sb strings.Builder
	Freeze(sp).WriteTree(&sb)
	if sb.Len() != 0 {
		t.Errorf("nil WriteTree wrote %q", sb.String())
	}
	if FromContext(ctx) != nil {
		t.Error("FromContext non-nil on bare context")
	}
}

// TestSpanConcurrentChildren attaches children from parallel goroutines —
// the reactor-round shape — and must pass under -race.
func TestSpanConcurrentChildren(t *testing.T) {
	ctx, root := StartTrace(context.Background(), "run")
	done := make(chan struct{})
	for i := 0; i < 8; i++ {
		go func() {
			_, sp := StartSpan(ctx, "analyst")
			sp.SetInt("suggestions", 1)
			sp.End()
			done <- struct{}{}
		}()
	}
	for i := 0; i < 8; i++ {
		<-done
	}
	root.End()
	if got := len(root.Children()); got != 8 {
		t.Errorf("children = %d, want 8", got)
	}
}
