package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"strings"
)

// modules are the repo packages cpu_share splits host time over; samples
// whose innermost repo frame is elsewhere (pktbuf, arena, energy, the
// benchmark itself) count as "other".
var modules = []string{"testbed", "exp", "sim", "phy", "ble", "statconn", "l2cap",
	"core", "sixlo", "ip6", "coap", "rpl", "trace", "metrics"}

const repoPrefix = "blemesh/internal/"

// cpuShares decodes a gzipped runtime/pprof CPU profile and charges each
// sample to the innermost stack frame that belongs to a repo package, so
// standard-library and runtime work (map iteration, allocation) counts
// against the layer that asked for it. Samples with no repo frame at all —
// GC workers, the scheduler — go to "runtime". It returns the share per
// module plus "runtime" and "other", and the sample count.
func cpuShares(gz []byte) (map[string]float64, int64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, 0, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, 0, fmt.Errorf("profile: %w", err)
	}
	p, err := decodeProfile(raw)
	if err != nil {
		return nil, 0, err
	}
	known := map[string]bool{}
	for _, m := range modules {
		known[m] = true
	}
	weight := map[string]int64{}
	var total, count int64
	for _, s := range p.samples {
		mod := "runtime"
	frames:
		for _, loc := range s.locs {
			for _, fn := range p.locFuncs[loc] {
				name := p.str(p.funcName[fn])
				if m, ok := repoModule(name); ok {
					mod = m
					if !known[m] {
						mod = "other"
					}
					break frames
				}
				if strings.HasPrefix(name, "main.") {
					mod = "other"
					break frames
				}
			}
		}
		weight[mod] += s.value
		total += s.value
		count += s.count
	}
	out := map[string]float64{}
	for _, m := range append(append([]string(nil), modules...), "runtime", "other") {
		if total > 0 {
			out[m] = float64(weight[m]) / float64(total)
		} else {
			out[m] = 0
		}
	}
	return out, count, nil
}

// repoModule maps "blemesh/internal/coap.(*Endpoint).gcSeen" to "coap" and
// "blemesh/internal/metrics/sketch.New" to "metrics".
func repoModule(fn string) (string, bool) {
	if !strings.HasPrefix(fn, repoPrefix) {
		return "", false
	}
	rest := fn[len(repoPrefix):]
	if i := strings.IndexAny(rest, "./"); i >= 0 {
		rest = rest[:i]
	}
	return rest, true
}

type profSample struct {
	locs  []uint64 // leaf first
	count int64    // first sample value (samples with this stack)
	value int64    // last sample value (CPU nanoseconds)
}

type profile struct {
	samples  []profSample
	locFuncs map[uint64][]uint64 // location id → function ids, innermost first
	funcName map[uint64]int64    // function id → string table index
	strings  []string
}

func (p *profile) str(i int64) string {
	if i < 0 || int(i) >= len(p.strings) {
		return ""
	}
	return p.strings[i]
}

// decodeProfile reads the parts of the profile.proto message cpuShares
// needs: samples (field 2), locations (4), functions (5) and the string
// table (6).
func decodeProfile(b []byte) (*profile, error) {
	p := &profile{locFuncs: map[uint64][]uint64{}, funcName: map[uint64]int64{}}
	err := fields(b, func(num int, v uint64, data []byte) error {
		switch num {
		case 2:
			var s profSample
			var vals []uint64
			err := fields(data, func(n int, v uint64, d []byte) error {
				switch n {
				case 1:
					return appendPacked(&s.locs, v, d)
				case 2:
					return appendPacked(&vals, v, d)
				}
				return nil
			})
			if err != nil {
				return err
			}
			if len(vals) > 0 {
				s.count = int64(vals[0])
				s.value = int64(vals[len(vals)-1])
			}
			p.samples = append(p.samples, s)
		case 4:
			var id uint64
			var fns []uint64
			err := fields(data, func(n int, v uint64, d []byte) error {
				switch n {
				case 1:
					id = v
				case 4:
					return fields(d, func(ln int, lv uint64, _ []byte) error {
						if ln == 1 {
							fns = append(fns, lv)
						}
						return nil
					})
				}
				return nil
			})
			if err != nil {
				return err
			}
			p.locFuncs[id] = fns
		case 5:
			var id uint64
			var name int64
			err := fields(data, func(n int, v uint64, _ []byte) error {
				switch n {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			if err != nil {
				return err
			}
			p.funcName[id] = name
		case 6:
			p.strings = append(p.strings, string(data))
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	return p, nil
}

// appendPacked appends a repeated varint field given either unpacked (v)
// or packed (data) encoding.
func appendPacked(dst *[]uint64, v uint64, data []byte) error {
	if data == nil {
		*dst = append(*dst, v)
		return nil
	}
	for len(data) > 0 {
		x, n := uvarint(data)
		if n <= 0 {
			return errBadVarint
		}
		*dst = append(*dst, x)
		data = data[n:]
	}
	return nil
}

var errBadVarint = errors.New("malformed varint")

func uvarint(b []byte) (uint64, int) {
	var x uint64
	for i := 0; i < len(b) && i < 10; i++ {
		x |= uint64(b[i]&0x7f) << (7 * uint(i))
		if b[i] < 0x80 {
			return x, i + 1
		}
	}
	return 0, 0
}

// fields walks one protobuf message, calling fn with each field's number
// and either its varint value or its length-delimited bytes (data is nil
// for varints). Fixed-width fields are skipped.
func fields(b []byte, fn func(num int, v uint64, data []byte) error) error {
	for len(b) > 0 {
		key, n := uvarint(b)
		if n <= 0 {
			return errBadVarint
		}
		b = b[n:]
		num, wt := int(key>>3), key&7
		switch wt {
		case 0:
			v, n := uvarint(b)
			if n <= 0 {
				return errBadVarint
			}
			b = b[n:]
			if err := fn(num, v, nil); err != nil {
				return err
			}
		case 1:
			if len(b) < 8 {
				return io.ErrUnexpectedEOF
			}
			b = b[8:]
		case 2:
			l, n := uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return io.ErrUnexpectedEOF
			}
			data := b[n : n+int(l)]
			b = b[n+int(l):]
			if err := fn(num, 0, data); err != nil {
				return err
			}
		case 5:
			if len(b) < 4 {
				return io.ErrUnexpectedEOF
			}
			b = b[4:]
		default:
			return fmt.Errorf("unsupported wire type %d", wt)
		}
	}
	return nil
}
