package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"strings"
)

// layers are the simulator's modules, named as the per-layer metrics name
// them. A package under repro/internal/ belongs to the layer named by its
// first path element (obs/flightrec is obs, workload/ecperf is workload).
// runtime.gc and runtime.alloc are the Go runtime's collector and
// allocator, told apart by the frames on the stack.
var layers = []string{
	"core", "osmodel", "cpu", "ifetch", "cache", "tlb", "coherence", "memsys",
	"jvm", "workload", "trace", "netsim", "db", "appserver", "cluster",
	"arrival", "fault", "obs", "simrand", "stats", "runtime.gc", "runtime.alloc",
}

// otherLayer collects samples whose stack names no listed layer: the
// scheduler, the benchmark's own code, and packages such as internal/mem.
const otherLayer = "other"

const modulePrefix = "repro/internal/"

// Frame-name prefixes that mark a sample as garbage-collector or allocator
// work. GC is checked first, so an assist taken inside mallocgc is GC.
var (
	gcFrames = []string{
		"runtime.gc", "runtime.markroot", "runtime.scanobject", "runtime.scanblock",
		"runtime.scanstack", "runtime.scanframe", "runtime.greyobject", "runtime.bgsweep",
		"runtime.sweepone", "runtime.(*mspan).sweep", "runtime.(*sweepLocked)", "runtime.bgscavenge",
		"runtime.(*gcWork)", "runtime.wbBuf", "runtime.bulkBarrier",
	}
	allocFrames = []string{
		"runtime.mallocgc", "runtime.newobject", "runtime.newarray", "runtime.makeslice",
		"runtime.growslice", "runtime.makemap", "runtime.convT", "runtime.rawstring",
		"runtime.rawbyteslice", "runtime.concatstring",
	}
)

func hasAnyPrefix(s string, prefixes []string) bool {
	for _, p := range prefixes {
		if strings.HasPrefix(s, p) {
			return true
		}
	}
	return false
}

// frameLayer maps one function name to its module's layer. ok is false for
// standard-library and runtime frames, which carry no layer of their own.
func frameLayer(fn string) (layer string, ok bool) {
	rest, found := strings.CutPrefix(fn, modulePrefix)
	if !found {
		if strings.HasPrefix(fn, "repro/") {
			return otherLayer, true
		}
		return "", false
	}
	if i := strings.IndexAny(rest, "/."); i >= 0 {
		rest = rest[:i]
	}
	for _, l := range layers {
		if l == rest {
			return l, true
		}
	}
	return otherLayer, true
}

func isRuntimeFrame(fn string) bool {
	return strings.HasPrefix(fn, "runtime.") || strings.HasPrefix(fn, "internal/runtime/")
}

// foldStack assigns one sample's stack (leaf first) to layers.
//
// The self layer is the layer of the leaf-most frame that has one. A
// standard-library or runtime helper (a map lookup, a sort) is charged to
// its caller, except that a runtime frame inside the collector or the
// allocator is charged to runtime.gc or runtime.alloc. A stack with no
// layer at all is other.
//
// The inclusive set holds every layer on the stack once, plus runtime.gc or
// runtime.alloc when the stack enters the collector or allocator, so the
// allocation a layer causes counts toward that layer's inclusive share.
func foldStack(stack []string) (self string, incl []string) {
	rt := ""
	for _, fn := range stack {
		if hasAnyPrefix(fn, gcFrames) {
			rt = "runtime.gc"
			break
		}
	}
	if rt == "" {
		for _, fn := range stack {
			if hasAnyPrefix(fn, allocFrames) {
				rt = "runtime.alloc"
				break
			}
		}
	}
	seen := map[string]bool{}
	if rt != "" {
		seen[rt] = true
		incl = append(incl, rt)
	}
	for _, fn := range stack {
		l, ok := frameLayer(fn)
		if self == "" {
			switch {
			case ok:
				self = l
			case rt != "" && isRuntimeFrame(fn):
				self = rt
			}
		}
		if ok && l != otherLayer && !seen[l] {
			seen[l] = true
			incl = append(incl, l)
		}
	}
	if self == "" {
		self = otherLayer
	}
	return self, incl
}

// layerProfile accumulates folded samples.
type layerProfile struct {
	total int64
	self  map[string]int64
	incl  map[string]int64
}

func newLayerProfile() *layerProfile {
	return &layerProfile{self: map[string]int64{}, incl: map[string]int64{}}
}

func (p *layerProfile) add(stack []string, n int64) {
	self, incl := foldStack(stack)
	p.total += n
	p.self[self] += n
	for _, l := range incl {
		p.incl[l] += n
	}
}

// shares returns <layer>.self_share and <layer>.incl_share for every
// listed layer plus other.self_share, in percent of all samples.
func (p *layerProfile) shares() map[string]float64 {
	out := map[string]float64{}
	pct := func(n int64) float64 {
		if p.total == 0 {
			return 0
		}
		return 100 * float64(n) / float64(p.total)
	}
	for _, l := range layers {
		out[l+".self_share"] = pct(p.self[l])
		out[l+".incl_share"] = pct(p.incl[l])
	}
	out[otherLayer+".self_share"] = pct(p.self[otherLayer])
	return out
}

// selfShareSum is the sum of every self share; folding gives each sample
// exactly one self layer, so it is 100 up to rounding.
func selfShareSum(sh map[string]float64) float64 {
	sum := sh[otherLayer+".self_share"]
	for _, l := range layers {
		sum += sh[l+".self_share"]
	}
	return sum
}

// addPprof folds a gzip-compressed CPU profile as runtime/pprof writes it.
func (p *layerProfile) addPprof(data []byte) error {
	zr, err := gzip.NewReader(bytes.NewReader(data))
	if err != nil {
		return fmt.Errorf("reading cpu profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return fmt.Errorf("reading cpu profile: %w", err)
	}
	prof, err := parseProfile(raw)
	if err != nil {
		return err
	}
	return prof.each(p.add)
}

// ---- a minimal decoder for the profile.proto subset CPU profiles use ----

type profile struct {
	samples []pSample
	// locations maps a location id to its function ids, innermost inlined
	// frame first.
	locations map[uint64][]uint64
	functions map[uint64]int64 // function id -> name index
	strings   []string
}

type pSample struct {
	locs  []uint64
	value int64 // first sample value: the sample count
}

// each calls fn with every sample's stack of function names, leaf first
// (inlined frames expanded, innermost first).
func (pr *profile) each(fn func(stack []string, n int64)) error {
	var stack []string
	for _, s := range pr.samples {
		stack = stack[:0]
		for _, id := range s.locs {
			lines, ok := pr.locations[id]
			if !ok {
				return fmt.Errorf("cpu profile: sample names unknown location %d", id)
			}
			for _, fid := range lines {
				idx, ok := pr.functions[fid]
				if !ok || idx < 0 || int(idx) >= len(pr.strings) {
					return fmt.Errorf("cpu profile: location %d names unknown function %d", id, fid)
				}
				stack = append(stack, pr.strings[idx])
			}
		}
		fn(stack, s.value)
	}
	return nil
}

var errTruncated = errors.New("cpu profile: truncated protobuf")

// pbuf walks one protobuf message.
type pbuf struct{ b []byte }

func (d *pbuf) varint() (uint64, error) {
	var x uint64
	for shift := uint(0); shift < 64; shift += 7 {
		if len(d.b) == 0 {
			return 0, errTruncated
		}
		c := d.b[0]
		d.b = d.b[1:]
		x |= uint64(c&0x7f) << shift
		if c < 0x80 {
			return x, nil
		}
	}
	return 0, errors.New("cpu profile: varint overflow")
}

// next returns the next field: its number, wire type, varint value (wire
// type 0) or payload (wire type 2).
func (d *pbuf) next() (field int, wire int, v uint64, payload []byte, err error) {
	key, err := d.varint()
	if err != nil {
		return 0, 0, 0, nil, err
	}
	field, wire = int(key>>3), int(key&7)
	switch wire {
	case 0:
		v, err = d.varint()
	case 1:
		if len(d.b) < 8 {
			return 0, 0, 0, nil, errTruncated
		}
		d.b = d.b[8:]
	case 2:
		var n uint64
		if n, err = d.varint(); err == nil {
			if n > uint64(len(d.b)) {
				return 0, 0, 0, nil, errTruncated
			}
			payload, d.b = d.b[:n], d.b[n:]
		}
	case 5:
		if len(d.b) < 4 {
			return 0, 0, 0, nil, errTruncated
		}
		d.b = d.b[4:]
	default:
		err = fmt.Errorf("cpu profile: unsupported wire type %d", wire)
	}
	return field, wire, v, payload, err
}

// uints decodes a repeated uint64 field given either packed (wire type 2)
// or as one value (wire type 0).
func uints(dst []uint64, wire int, v uint64, payload []byte) ([]uint64, error) {
	if wire == 0 {
		return append(dst, v), nil
	}
	d := pbuf{payload}
	for len(d.b) > 0 {
		x, err := d.varint()
		if err != nil {
			return dst, err
		}
		dst = append(dst, x)
	}
	return dst, nil
}

func parseProfile(raw []byte) (*profile, error) {
	pr := &profile{locations: map[uint64][]uint64{}, functions: map[uint64]int64{}}
	d := pbuf{raw}
	for len(d.b) > 0 {
		field, wire, _, payload, err := d.next()
		if err != nil {
			return nil, err
		}
		switch field {
		case 2: // Sample
			s, err := parseSample(payload)
			if err != nil {
				return nil, err
			}
			pr.samples = append(pr.samples, s)
		case 4: // Location
			id, lines, err := parseLocation(payload)
			if err != nil {
				return nil, err
			}
			pr.locations[id] = lines
		case 5: // Function
			id, name, err := parseFunction(payload)
			if err != nil {
				return nil, err
			}
			pr.functions[id] = name
		case 6: // string_table
			if wire != 2 {
				return nil, errors.New("cpu profile: malformed string table")
			}
			pr.strings = append(pr.strings, string(payload))
		}
	}
	return pr, nil
}

func parseSample(b []byte) (pSample, error) {
	var s pSample
	var vals []uint64
	d := pbuf{b}
	for len(d.b) > 0 {
		field, wire, v, payload, err := d.next()
		if err != nil {
			return s, err
		}
		switch field {
		case 1:
			s.locs, err = uints(s.locs, wire, v, payload)
		case 2:
			vals, err = uints(vals, wire, v, payload)
		}
		if err != nil {
			return s, err
		}
	}
	if len(vals) > 0 {
		s.value = int64(vals[0])
	}
	return s, nil
}

func parseLocation(b []byte) (uint64, []uint64, error) {
	var id uint64
	var lines []uint64
	d := pbuf{b}
	for len(d.b) > 0 {
		field, _, v, payload, err := d.next()
		if err != nil {
			return 0, nil, err
		}
		switch field {
		case 1:
			id = v
		case 4: // Line
			ld := pbuf{payload}
			var fid uint64
			for len(ld.b) > 0 {
				f, _, lv, _, err := ld.next()
				if err != nil {
					return 0, nil, err
				}
				if f == 1 {
					fid = lv
				}
			}
			lines = append(lines, fid)
		}
	}
	return id, lines, nil
}

func parseFunction(b []byte) (uint64, int64, error) {
	var id uint64
	var name int64
	d := pbuf{b}
	for len(d.b) > 0 {
		field, _, v, _, err := d.next()
		if err != nil {
			return 0, 0, err
		}
		switch field {
		case 1:
			id = v
		case 2:
			name = int64(v)
		}
	}
	return id, name, nil
}
