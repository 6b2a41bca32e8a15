package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strings"
)

// cpuLayers maps each layer to the function-name prefixes of its entry
// points. A profile sample counts towards a layer when any frame of its
// stack starts with one of the layer's prefixes.
var cpuLayers = []struct {
	name     string
	prefixes []string
}{
	{"net_http", []string{"net/http."}},
	{"encoding_json", []string{"encoding/json."}},
	{"syscall", []string{"syscall.", "internal/poll.", "internal/runtime/syscall."}},
	{"client", []string{"repro/homeo/client."}},
	{"httpapi", []string{"repro/homeo/httpapi."}},
	{"exec", []string{"repro/internal/homeostasis.(*System).execAttempt"}},
	{"negotiate", []string{"repro/internal/homeostasis.(*System).negotiate"}},
	{"treaty_optimize", []string{"repro/internal/treaty.Optimize"}},
	{"store", []string{"repro/internal/store."}},
	{"rtlive", []string{"repro/internal/rtlive."}},
	{"sim", []string{"repro/internal/sim."}},
	{"wal", []string{"repro/internal/wal."}},
	{"gc", []string{"runtime.gcBgMarkWorker", "runtime.gcAssistAlloc", "runtime.bgsweep", "runtime.bgscavenge"}},
}

// cpuCounts accumulates profile samples: the total and, per layer, the
// samples whose stack passes through that layer.
type cpuCounts struct {
	total int64
	layer map[string]int64
}

func (c *cpuCounts) shares() map[string]float64 {
	out := make(map[string]float64, len(cpuLayers))
	for _, l := range cpuLayers {
		out["cpu.share."+l.name] = ratio(float64(c.layer[l.name]), float64(c.total))
	}
	return out
}

// addProfile parses a gzipped CPU profile as runtime/pprof writes it
// (profile.proto) and adds its samples to c.
func (c *cpuCounts) addProfile(gz []byte) error {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return fmt.Errorf("cpu profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return fmt.Errorf("cpu profile: %w", err)
	}
	p, err := parseProfile(raw)
	if err != nil {
		return fmt.Errorf("cpu profile: %w", err)
	}
	if c.layer == nil {
		c.layer = map[string]int64{}
	}
	// Function ids per location, then the layers each location belongs to.
	locLayers := map[uint64][]string{}
	for id, fns := range p.locFuncs {
		seen := map[string]bool{}
		for _, fn := range fns {
			name := p.str(p.funcName[fn])
			for _, l := range cpuLayers {
				for _, pre := range l.prefixes {
					if strings.HasPrefix(name, pre) && !seen[l.name] {
						seen[l.name] = true
						locLayers[id] = append(locLayers[id], l.name)
					}
				}
			}
		}
	}
	for _, s := range p.samples {
		c.total += s.count
		seen := map[string]bool{}
		for _, loc := range s.locs {
			for _, l := range locLayers[loc] {
				if !seen[l] {
					seen[l] = true
					c.layer[l] += s.count
				}
			}
		}
	}
	return nil
}

type profSample struct {
	locs  []uint64
	count int64
}

// profile is the subset of profile.proto the shares need.
type profile struct {
	samples  []profSample
	locFuncs map[uint64][]uint64 // location id -> function ids (inlined first)
	funcName map[uint64]int64    // function id -> string table index
	strings  []string
}

func (p *profile) str(i int64) string {
	if i < 0 || int(i) >= len(p.strings) {
		return ""
	}
	return p.strings[i]
}

// Field numbers from profile.proto.
const (
	fProfileSample   = 2
	fProfileLocation = 4
	fProfileFunction = 5
	fProfileString   = 6
	fSampleLocation  = 1
	fSampleValue     = 2
	fLocationID      = 1
	fLocationLine    = 4
	fLineFunction    = 1
	fFunctionID      = 1
	fFunctionName    = 2
)

var errTruncated = errors.New("truncated protobuf")

// pbField is one decoded protobuf field: a varint value or a
// length-delimited payload.
type pbField struct {
	num   int
	wire  int
	value uint64
	data  []byte
}

// pbFields splits a protobuf message into its fields.
func pbFields(b []byte) ([]pbField, error) {
	var out []pbField
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return nil, errTruncated
		}
		b = b[n:]
		f := pbField{num: int(key >> 3), wire: int(key & 7)}
		switch f.wire {
		case 0:
			f.value, n = binary.Uvarint(b)
			if n <= 0 {
				return nil, errTruncated
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return nil, errTruncated
			}
			f.value = binary.LittleEndian.Uint64(b)
			b = b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return nil, errTruncated
			}
			f.data = b[n : n+int(l)]
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return nil, errTruncated
			}
			f.value = uint64(binary.LittleEndian.Uint32(b))
			b = b[4:]
		default:
			return nil, fmt.Errorf("unsupported protobuf wire type %d", f.wire)
		}
		out = append(out, f)
	}
	return out, nil
}

// varints decodes a repeated integer field, packed or not.
func (f pbField) varints() ([]uint64, error) {
	if f.wire == 0 {
		return []uint64{f.value}, nil
	}
	var out []uint64
	b := f.data
	for len(b) > 0 {
		v, n := binary.Uvarint(b)
		if n <= 0 {
			return nil, errTruncated
		}
		out = append(out, v)
		b = b[n:]
	}
	return out, nil
}

func parseProfile(raw []byte) (*profile, error) {
	fields, err := pbFields(raw)
	if err != nil {
		return nil, err
	}
	p := &profile{locFuncs: map[uint64][]uint64{}, funcName: map[uint64]int64{}}
	for _, f := range fields {
		switch f.num {
		case fProfileString:
			p.strings = append(p.strings, string(f.data))
		case fProfileSample:
			sf, err := pbFields(f.data)
			if err != nil {
				return nil, err
			}
			var s profSample
			var vals []uint64
			for _, x := range sf {
				vs, err := x.varints()
				if err != nil {
					return nil, err
				}
				switch x.num {
				case fSampleLocation:
					s.locs = append(s.locs, vs...)
				case fSampleValue:
					vals = append(vals, vs...)
				}
			}
			// The first value of a CPU profile is the sample count.
			if len(vals) > 0 {
				s.count = int64(vals[0])
			}
			p.samples = append(p.samples, s)
		case fProfileLocation:
			lf, err := pbFields(f.data)
			if err != nil {
				return nil, err
			}
			var id uint64
			var fns []uint64
			for _, x := range lf {
				switch x.num {
				case fLocationID:
					id = x.value
				case fLocationLine:
					line, err := pbFields(x.data)
					if err != nil {
						return nil, err
					}
					for _, y := range line {
						if y.num == fLineFunction {
							fns = append(fns, y.value)
						}
					}
				}
			}
			p.locFuncs[id] = fns
		case fProfileFunction:
			ff, err := pbFields(f.data)
			if err != nil {
				return nil, err
			}
			var id uint64
			var name int64
			for _, x := range ff {
				switch x.num {
				case fFunctionID:
					id = x.value
				case fFunctionName:
					name = int64(x.value)
				}
			}
			p.funcName[id] = name
		}
	}
	return p, nil
}
