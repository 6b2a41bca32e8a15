package main

import (
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"
)

func TestSelfTime(t *testing.T) {
	t0 := time.Unix(0, 0)
	at := func(a, b int) span {
		return span{Start: t0.Add(time.Duration(a) * time.Millisecond), End: t0.Add(time.Duration(b) * time.Millisecond)}
	}
	parent := at(0, 10)
	for _, tc := range []struct {
		name     string
		children []span
		want     time.Duration
	}{
		{"no children", nil, 10 * time.Millisecond},
		{"one child", []span{at(2, 5)}, 7 * time.Millisecond},
		{"overlapping children count once", []span{at(2, 5), at(1, 3)}, 6 * time.Millisecond},
		{"nested child", []span{at(1, 8), at(2, 3)}, 3 * time.Millisecond},
		{"children clipped to the parent", []span{at(-5, 1), at(9, 12)}, 8 * time.Millisecond},
		{"child outside the parent", []span{at(11, 12)}, 10 * time.Millisecond},
		{"disjoint children", []span{at(7, 8), at(1, 3), at(4, 5)}, 6 * time.Millisecond},
	} {
		if got := selfTime(parent, tc.children); got != tc.want {
			t.Errorf("%s: self time %v, want %v", tc.name, got, tc.want)
		}
	}
}

// The client's transport and the server's wrapper link one request's two
// spans through the span header.
func TestSpansLinkAcrossTheWire(t *testing.T) {
	tr := newTracer()
	srv := httptest.NewServer(tr.wrap(http.HandlerFunc(func(rw http.ResponseWriter, _ *http.Request) {
		_, _ = io.WriteString(rw, "hello")
	})))
	defer srv.Close()
	hc := &http.Client{Transport: spanTransport{base: http.DefaultTransport}}
	req, err := http.NewRequestWithContext(withSpanID(context.Background(), 42), http.MethodGet, srv.URL, nil)
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	resp, err := hc.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	_, _ = io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	tr.addClient(42, span{Start: start, End: time.Now()}, 0)

	s, ok := tr.server[42]
	if !ok {
		t.Fatalf("no server span for id 42: %v", tr.server)
	}
	if s.Bytes != len("hello") {
		t.Errorf("server span counted %d response bytes, want %d", s.Bytes, len("hello"))
	}
	got := tr.layers()
	if got["httpapi.serve_ms_p50"] <= 0 || got["wire.overhead_ms_p50"] <= 0 {
		t.Errorf("layers = %v, want positive serve and wire times", got)
	}
	if got["client.submit_ms_p50"] < got["httpapi.serve_ms_p50"] {
		t.Errorf("client span %gms shorter than the server span %gms inside it",
			got["client.submit_ms_p50"], got["httpapi.serve_ms_p50"])
	}
}
