package web

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"fmt"
	"log/slog"
	"net/http"
	"runtime/debug"
	"strconv"
	"sync/atomic"
	"time"

	"magnet/internal/obs"
)

// Request observability: every request is counted and timed, with one
// counter per status class so error rates are visible at a glance on
// /debug/metrics.
var (
	reqCount = obs.NewCounter("web.request.count")
	reqNS    = obs.NewHistogram("web.request.ns")

	// reqStatusClass[c] counts responses with status c00–c99.
	reqStatusClass = func() [6]*obs.Counter {
		var a [6]*obs.Counter
		for c := 1; c <= 5; c++ {
			a[c] = obs.NewCounter(fmt.Sprintf("web.request.status.%dxx", c))
		}
		return a
	}()
)

// Request IDs are a per-process random prefix plus an atomic sequence
// number: unique enough to grep the access log, allocation-light, and
// stable for the lifetime of a request (error pages echo them so a user
// report can be matched to the logged failure).
var (
	reqPrefix = func() string {
		b := make([]byte, 4)
		if _, err := rand.Read(b); err != nil {
			return "00000000"
		}
		return hex.EncodeToString(b)
	}()
	reqSeq atomic.Uint64
)

func nextRequestID() string {
	return reqPrefix + "-" + strconv.FormatUint(reqSeq.Add(1), 10)
}

type requestIDKey struct{}

// RequestID returns the request ID the observability middleware assigned,
// or "" outside a request.
func RequestID(ctx context.Context) string {
	id, _ := ctx.Value(requestIDKey{}).(string)
	return id
}

// statusWriter captures the status code and byte count a handler writes.
type statusWriter struct {
	http.ResponseWriter
	status int
	bytes  int
}

func (w *statusWriter) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(p []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	n, err := w.ResponseWriter.Write(p)
	w.bytes += n
	return n, err
}

// observe wraps a handler with the access-log, metrics, and per-request
// span middleware. Each request runs under its own trace root stamped
// with the request ID as its trace ID — so access-log lines, error pages,
// histogram exemplars and flight-recorder captures all join on one key.
// Session handlers install the request context on the session (under the
// server mutex, via withSession) so a navigation step's spans land in the
// request's tree; the completed root is handed to the flight recorder
// after the response is gone.
//
// A panicking handler is recovered here and answered with a 500 that
// carries the request ID, and it is counted, logged and traced like any
// other request. Left to net/http, the panic would drop the connection
// unlogged, and the client's transport would retry the GET, running the
// failing step a second time.
func (s *Server) observe(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id := nextRequestID()
		ctx := context.WithValue(r.Context(), requestIDKey{}, id)
		ctx, sp := obs.StartTrace(ctx, "web.request")
		sp.SetTraceID(id)
		sp.SetAttr("path", r.URL.Path)
		sw := &statusWriter{ResponseWriter: w}
		start := time.Now()
		defer func() {
			p := recover()
			sent := sw.status != 0
			if p != nil {
				s.log.LogAttrs(ctx, slog.LevelError, "handler panic",
					slog.String("id", id),
					slog.String("path", r.URL.Path),
					slog.Any("panic", p),
					slog.String("stack", string(debug.Stack())),
				)
				if !sent {
					http.Error(sw, "internal error (request "+id+")", http.StatusInternalServerError)
				}
				sw.status = http.StatusInternalServerError
			}
			sp.End()
			if sw.status == 0 {
				sw.status = http.StatusOK
			}
			reqCount.Inc()
			reqNS.ObserveSinceExemplar(start, id)
			if c := sw.status / 100; c >= 1 && c <= 5 {
				reqStatusClass[c].Inc()
			}
			obs.Records.Record(sp)
			s.log.LogAttrs(ctx, slog.LevelInfo, "request",
				slog.String("id", id),
				slog.String("method", r.Method),
				slog.String("path", r.URL.Path),
				slog.Int("status", sw.status),
				slog.Int("bytes", sw.bytes),
				slog.Duration("dur", time.Since(start)),
				slog.Int("spans", sp.Count()),
			)
			if p != nil && sent {
				// The status line is already out, so a 500 cannot follow;
				// abort the response rather than let a truncated page
				// pass as complete.
				panic(http.ErrAbortHandler)
			}
		}()
		h.ServeHTTP(sw, r.WithContext(ctx))
	})
}
