package main

import (
	"bufio"
	"context"
	"encoding/json"
	"net/http"
	"os"
	"sort"
	"strconv"
	"sync"
	"time"
)

// span is one timed call at a layer boundary.
type span struct {
	Start time.Time `json:"start"`
	End   time.Time `json:"end"`
}

func (s span) dur() time.Duration { return s.End.Sub(s.Start) }

// selfTime is a span's duration minus the part of it that its child spans
// cover: the union of the children's intervals, clipped to the parent.
func selfTime(parent span, children []span) time.Duration {
	var cs []span
	for _, c := range children {
		if c.Start.Before(parent.Start) {
			c.Start = parent.Start
		}
		if c.End.After(parent.End) {
			c.End = parent.End
		}
		if c.End.After(c.Start) {
			cs = append(cs, c)
		}
	}
	sort.Slice(cs, func(i, j int) bool { return cs[i].Start.Before(cs[j].Start) })
	covered := time.Duration(0)
	var cur span
	for i, c := range cs {
		switch {
		case i == 0:
			cur = c
		case c.Start.After(cur.End):
			covered += cur.dur()
			cur = c
		case c.End.After(cur.End):
			cur.End = c.End
		}
	}
	if len(cs) > 0 {
		covered += cur.dur()
	}
	return parent.dur() - covered
}

// spanHeader carries a request's span id from the client to the server,
// so the server's span can be linked to the client's.
const spanHeader = "X-Perfbench-Span"

type spanIDKey struct{}

// withSpanID tags a request context with a span id for spanTransport.
func withSpanID(ctx context.Context, id int64) context.Context {
	return context.WithValue(ctx, spanIDKey{}, id)
}

// spanTransport injects the span id found in a request's context as
// spanHeader.
type spanTransport struct{ base http.RoundTripper }

func (t spanTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	if id, ok := req.Context().Value(spanIDKey{}).(int64); ok {
		req = req.Clone(req.Context())
		req.Header.Set(spanHeader, strconv.FormatInt(id, 10))
	}
	return t.base.RoundTrip(req)
}

// serverSpan is the server side of one traced request.
type serverSpan struct {
	span
	Bytes int `json:"bytes"`
}

// tracer keeps the spans of one traced window in memory.
type tracer struct {
	mu     sync.Mutex
	client map[int64]span
	server map[int64]serverSpan
	engine map[int64]float64 // the engine's latency_ms from each response
}

func newTracer() *tracer {
	return &tracer{client: map[int64]span{}, server: map[int64]serverSpan{}, engine: map[int64]float64{}}
}

// addClient records a client span and the engine latency its response
// reported.
func (t *tracer) addClient(id int64, s span, engineMS float64) {
	t.mu.Lock()
	t.client[id] = s
	t.engine[id] = engineMS
	t.mu.Unlock()
}

// wrap returns an http.Handler that records a server span, with its
// response size, around every request of next that carries a span id.
func (t *tracer) wrap(next http.Handler) http.Handler {
	return http.HandlerFunc(func(rw http.ResponseWriter, req *http.Request) {
		id, err := strconv.ParseInt(req.Header.Get(spanHeader), 10, 64)
		if err != nil {
			next.ServeHTTP(rw, req)
			return
		}
		cw := &countingWriter{ResponseWriter: rw}
		start := time.Now()
		next.ServeHTTP(cw, req)
		s := serverSpan{span: span{Start: start, End: time.Now()}, Bytes: cw.n}
		t.mu.Lock()
		t.server[id] = s
		t.mu.Unlock()
	})
}

type countingWriter struct {
	http.ResponseWriter
	n int
}

func (w *countingWriter) Write(p []byte) (int, error) {
	n, err := w.ResponseWriter.Write(p)
	w.n += n
	return n, err
}

// layers derives the client, wire and httpapi figures from the linked
// spans.
func (t *tracer) layers() map[string]float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var client, serve, wire, self []float64
	bytes := 0
	for id, c := range t.client {
		client = append(client, ms(c.dur()))
		s, ok := t.server[id]
		if !ok {
			continue
		}
		serve = append(serve, ms(s.dur()))
		bytes += s.Bytes
		wire = append(wire, ms(selfTime(c, []span{s.span})))
		self = append(self, max(0, ms(s.dur())-t.engine[id]))
	}
	return map[string]float64{
		"client.submit_ms_p50":       percentile(client, 50),
		"client.submit_ms_p99":       percentile(client, 99),
		"wire.overhead_ms_p50":       percentile(wire, 50),
		"httpapi.serve_ms_p50":       percentile(serve, 50),
		"httpapi.serve_ms_p99":       percentile(serve, 99),
		"httpapi.self_ms_p50":        percentile(self, 50),
		"httpapi.resp_bytes_per_txn": ratio(float64(bytes), float64(len(serve))),
	}
}

// dump writes the spans as JSON lines, one per traced request.
func (t *tracer) dump(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	ids := make([]int64, 0, len(t.client))
	for id := range t.client {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		rec := struct {
			ID     int64       `json:"id"`
			Client span        `json:"client_submit"`
			Server *serverSpan `json:"httpapi_serve,omitempty"`
		}{ID: id, Client: t.client[id]}
		if s, ok := t.server[id]; ok {
			rec.Server = &s
		}
		if err := enc.Encode(rec); err != nil {
			_ = f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		_ = f.Close()
		return err
	}
	return f.Close()
}
