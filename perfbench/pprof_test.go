package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"encoding/json"
	"math"
	"runtime/pprof"
	"testing"
	"time"
)

// pb is a minimal protobuf writer for building test profiles.
type pb struct{ b []byte }

func (p *pb) varint(field int, v uint64) {
	p.b = binary.AppendUvarint(p.b, uint64(field)<<3)
	p.b = binary.AppendUvarint(p.b, v)
}

func (p *pb) bytes(field int, data []byte) {
	p.b = binary.AppendUvarint(p.b, uint64(field)<<3|2)
	p.b = binary.AppendUvarint(p.b, uint64(len(data)))
	p.b = append(p.b, data...)
}

func (p *pb) packed(field int, vs ...uint64) {
	var inner []byte
	for _, v := range vs {
		inner = binary.AppendUvarint(inner, v)
	}
	p.bytes(field, inner)
}

// testProfile encodes a CPU profile whose samples are stacks of function
// names, each weighted by a count. Samples with an even index use packed
// repeated fields and the others unpacked ones, as runtime/pprof mixes
// both.
func testProfile(t *testing.T, samples []struct {
	stack []string
	count uint64
}) []byte {
	t.Helper()
	var prof pb
	strs := []string{""}
	ids := map[string]uint64{}
	for _, s := range samples {
		for _, fn := range s.stack {
			if _, ok := ids[fn]; ok {
				continue
			}
			id := uint64(len(ids) + 1)
			ids[fn] = id
			strs = append(strs, fn)
			var f pb
			f.varint(fFunctionID, id)
			f.varint(fFunctionName, uint64(len(strs)-1))
			prof.bytes(fProfileFunction, f.b)
			// One location per function, with the same id.
			var line pb
			line.varint(fLineFunction, id)
			var loc pb
			loc.varint(fLocationID, id)
			loc.bytes(fLocationLine, line.b)
			prof.bytes(fProfileLocation, loc.b)
		}
	}
	for i, s := range samples {
		var locs []uint64
		for _, fn := range s.stack {
			locs = append(locs, ids[fn])
		}
		var sm pb
		if i%2 == 0 {
			sm.packed(fSampleLocation, locs...)
			sm.packed(fSampleValue, s.count, s.count*10_000_000)
		} else {
			for _, l := range locs {
				sm.varint(fSampleLocation, l)
			}
			sm.varint(fSampleValue, s.count)
			sm.varint(fSampleValue, s.count*10_000_000)
		}
		prof.bytes(fProfileSample, sm.b)
	}
	for _, s := range strs {
		prof.bytes(fProfileString, []byte(s))
	}
	var buf bytes.Buffer
	zw := gzip.NewWriter(&buf)
	if _, err := zw.Write(prof.b); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestCPUSharesFromProfile(t *testing.T) {
	gz := testProfile(t, []struct {
		stack []string
		count uint64
	}{
		// A stack passing through a layer twice counts once.
		{[]string{"encoding/json.Marshal", "repro/homeo/httpapi.writeJSON", "encoding/json.(*encodeState).marshal", "net/http.(*conn).serve"}, 3},
		{[]string{"repro/internal/store.(*Store).Get", "repro/internal/homeostasis.(*System).execAttempt"}, 2},
		{[]string{"runtime.gcBgMarkWorker"}, 1},
		{[]string{"main.other"}, 4},
	})
	var cc cpuCounts
	if err := cc.addProfile(gz); err != nil {
		t.Fatal(err)
	}
	if err := cc.addProfile(gz); err != nil { // profiles accumulate
		t.Fatal(err)
	}
	want := map[string]float64{
		"cpu.share.encoding_json": 0.3,
		"cpu.share.httpapi":       0.3,
		"cpu.share.net_http":      0.3,
		"cpu.share.store":         0.2,
		"cpu.share.exec":          0.2,
		"cpu.share.gc":            0.1,
		"cpu.share.negotiate":     0,
	}
	got := cc.shares()
	if len(got) != len(cpuLayers) {
		t.Errorf("%d shares, want one per layer (%d)", len(got), len(cpuLayers))
	}
	for k, v := range want {
		if math.Abs(got[k]-v) > 1e-9 {
			t.Errorf("%s = %g, want %g", k, got[k], v)
		}
	}
	if cc.total != 20 {
		t.Errorf("total samples %d, want 20", cc.total)
	}
}

func TestCPUProfileParserRejectsGarbage(t *testing.T) {
	var cc cpuCounts
	if err := cc.addProfile([]byte("not a profile")); err == nil {
		t.Error("garbage parsed as a profile")
	}
	var buf bytes.Buffer
	zw := gzip.NewWriter(&buf)
	_, _ = zw.Write([]byte{0x12, 0x7f, 0x01}) // a length running past the end
	_ = zw.Close()
	if err := cc.addProfile(buf.Bytes()); err == nil {
		t.Error("truncated protobuf parsed as a profile")
	}
}

// A real profile from runtime/pprof parses, and time spent marshalling
// JSON shows as that layer's share.
func TestCPUSharesFromRuntimeProfile(t *testing.T) {
	if testing.Short() {
		t.Skip("profiles for half a second")
	}
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip("CPU profiling unavailable:", err)
	}
	v := map[string][]int{"a": make([]int, 1000)}
	for deadline := time.Now().Add(500 * time.Millisecond); time.Now().Before(deadline); {
		for i := 0; i < 100; i++ {
			if _, err := json.Marshal(v); err != nil {
				t.Fatal(err)
			}
		}
	}
	pprof.StopCPUProfile()
	var cc cpuCounts
	if err := cc.addProfile(buf.Bytes()); err != nil {
		t.Fatal(err)
	}
	if cc.total == 0 {
		t.Skip("no samples collected")
	}
	// The rest of the samples are the garbage collector and, under -race,
	// the race detector.
	shares := cc.shares()
	if s := shares["cpu.share.encoding_json"]; s < 0.25 {
		t.Errorf("encoding_json share %g of %d samples, want at least a quarter", s, cc.total)
	}
	if s := shares["cpu.share.sim"]; s != 0 {
		t.Errorf("sim share %g in a profile that never ran the simulator", s)
	}
}
