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

// cpuLayers names each per-layer CPU share and the function-name prefix
// that puts a profile sample in it: a sample counts for a layer when any
// frame of its stack, inlined frames included, matches (the semantics of
// `go tool pprof -focus`).
var cpuLayers = []struct{ metric, prefix string }{
	{"synth.cpu_share", "repro/internal/synth."},
	{"serve.stall_timeline_cpu_share", "repro/internal/serve.layerStallCore"},
	{"expertmem.cpu_share", "repro/internal/expertmem."},
	{"placement.cpu_share", "repro/internal/placement."},
	{"engine.cpu_share", "repro/internal/engine."},
	{"tensor.cpu_share", "repro/internal/tensor."},
}

// cpuCounts accumulates CPU-profile sample counts across profiles.
type cpuCounts struct {
	total int64
	layer map[string]int64
}

func (c *cpuCounts) shares() map[string]float64 {
	out := make(map[string]float64, len(cpuLayers))
	for _, l := range cpuLayers {
		out[l.metric] = 0
		if c.total > 0 {
			out[l.metric] = float64(c.layer[l.metric]) / float64(c.total)
		}
	}
	return out
}

// add decodes one gzipped runtime/pprof CPU profile (profile.proto) and
// adds its sample counts. Only the fields needed to name each sample's
// frames are read: samples, locations with their lines, functions and the
// string table.
func (c *cpuCounts) add(gz []byte) error {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return fmt.Errorf("cpu profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return fmt.Errorf("cpu profile: %w", err)
	}
	type samp struct {
		locs  []uint64
		count int64
	}
	var (
		samples []samp
		locFns  = map[uint64][]uint64{} // location id -> function ids
		fnName  = map[uint64]int64{}    // function id -> string index
		strs    []string
	)
	err = protoFields(raw, func(field int, v uint64, b []byte) error {
		switch field {
		case 2: // Sample
			var s samp
			first := true
			err := protoFields(b, func(f int, v uint64, b []byte) error {
				switch f {
				case 1:
					s.locs = appendVarints(s.locs, v, b)
				case 2: // value[0] is the sample count
					if vals := appendVarints(nil, v, b); first && len(vals) > 0 {
						s.count, first = int64(vals[0]), false
					}
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4: // Location
			var id uint64
			var fns []uint64
			err := protoFields(b, func(f int, v uint64, b []byte) error {
				switch f {
				case 1:
					id = v
				case 4: // Line
					return protoFields(b, func(f int, v uint64, _ []byte) error {
						if f == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locFns[id] = fns
			return err
		case 5: // Function
			var id uint64
			var name int64
			err := protoFields(b, func(f int, v uint64, _ []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			fnName[id] = name
			return err
		case 6:
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return fmt.Errorf("cpu profile: %w", err)
	}
	if c.layer == nil {
		c.layer = map[string]int64{}
	}
	for _, s := range samples {
		// The clock sampler (clock.go) is the benchmark's, not the program's.
		if stackMatches(s.locs, locFns, fnName, strs, "main.(*refClock).sample") {
			continue
		}
		c.total += s.count
		for _, l := range cpuLayers {
			if stackMatches(s.locs, locFns, fnName, strs, l.prefix) {
				c.layer[l.metric] += s.count
			}
		}
	}
	return nil
}

func stackMatches(locs []uint64, locFns map[uint64][]uint64, fnName map[uint64]int64, strs []string, prefix string) bool {
	for _, loc := range locs {
		for _, fn := range locFns[loc] {
			if i := fnName[fn]; i >= 0 && int(i) < len(strs) && strings.HasPrefix(strs[i], prefix) {
				return true
			}
		}
	}
	return false
}

// appendVarints appends a repeated integer field's values: v itself when
// the field arrived unpacked, or every varint in b when packed.
func appendVarints(dst []uint64, v uint64, b []byte) []uint64 {
	if b == nil {
		return append(dst, v)
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			return dst
		}
		dst = append(dst, x)
		b = b[n:]
	}
	return dst
}

// protoFields walks one protobuf message, calling fn with each field's
// number and either its integer value (varint and fixed wire types, b nil)
// or its bytes (length-delimited, b non-nil).
func protoFields(msg []byte, fn func(field int, v uint64, b []byte) error) error {
	for len(msg) > 0 {
		key, n := binary.Uvarint(msg)
		if n <= 0 {
			return errors.New("bad field key")
		}
		msg = msg[n:]
		field, wire := int(key>>3), key&7
		var v uint64
		var b []byte
		switch wire {
		case 0:
			if v, n = binary.Uvarint(msg); n <= 0 {
				return errors.New("bad varint")
			}
			msg = msg[n:]
		case 1:
			if len(msg) < 8 {
				return errors.New("short fixed64")
			}
			v, msg = binary.LittleEndian.Uint64(msg), msg[8:]
		case 2:
			l, n := binary.Uvarint(msg)
			if n <= 0 || uint64(len(msg)-n) < l {
				return errors.New("bad length-delimited field")
			}
			b, msg = msg[n:n+int(l)], msg[n+int(l):]
			if b == nil {
				b = []byte{}
			}
		case 5:
			if len(msg) < 4 {
				return errors.New("short fixed32")
			}
			v, msg = uint64(binary.LittleEndian.Uint32(msg)), msg[4:]
		default:
			return fmt.Errorf("unsupported wire type %d", wire)
		}
		if err := fn(field, v, b); err != nil {
			return err
		}
	}
	return nil
}
