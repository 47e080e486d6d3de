package web

import (
	"bytes"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strings"
	"testing"
)

// TestRenderPanicReturns500 pins the failure mode of a page writer that
// panics halfway through its page: observe answers with a 500 carrying
// the request ID, none of the bytes already written reach the client (no
// truncated page passes as complete), the panic is logged under the same
// ID, and web.request.status.5xx is bumped.
func TestRenderPanicReturns500(t *testing.T) {
	var logBuf bytes.Buffer
	s := &Server{log: slog.New(slog.NewTextHandler(&logBuf, nil))}
	h := s.observe(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		s.render(w, r, func(b []byte) []byte {
			b = append(b, "<!doctype html><title>half a page"...)
			panic("writer bug")
		})
	}))
	rec := httptest.NewRecorder()
	before := reqStatusClass[5].Value()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/", nil))

	if rec.Code != http.StatusInternalServerError {
		t.Errorf("status = %d, want 500", rec.Code)
	}
	body := rec.Body.String()
	id := regexp.MustCompile(`request ([0-9a-f]+-[0-9]+)`).FindStringSubmatch(body)
	if id == nil {
		t.Fatalf("error page does not carry the request ID: %q", body)
	}
	if strings.Contains(body, "half a page") {
		t.Errorf("partial page leaked to the client: %q", body)
	}
	if got := reqStatusClass[5].Value(); got != before+1 {
		t.Errorf("web.request.status.5xx = %d, want %d", got, before+1)
	}
	logged := logBuf.String()
	if !strings.Contains(logged, "id="+id[1]) || !strings.Contains(logged, "writer bug") {
		t.Errorf("log entry missing request ID or panic: %q", logged)
	}
}

// TestRenderSuccess pins the happy path: the written page is sent with the
// HTML content type and a 200.
func TestRenderSuccess(t *testing.T) {
	s := &Server{log: slog.New(slog.NewTextHandler(&bytes.Buffer{}, nil))}
	req := httptest.NewRequest("GET", "/", nil)
	rec := httptest.NewRecorder()
	s.render(rec, req, func(b []byte) []byte { return append(b, "hello magnet"...) })
	if rec.Code != 200 {
		t.Errorf("status = %d, want 200", rec.Code)
	}
	if got := rec.Body.String(); got != "hello magnet" {
		t.Errorf("body = %q", got)
	}
	if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/html") {
		t.Errorf("Content-Type = %q", ct)
	}
}
