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

// A CPU profile as runtime/pprof writes it: a gzipped profile.proto
// message. The decoder below reads only what self-time attribution needs
// (sample values and their stacks, resolved to function names), with the
// standard library alone, so the benchmark never shells out to
// `go tool pprof`.

// profSample is one decoded sample: its CPU time and its stack as function
// names, leaf first (inlined frames expanded).
type profSample struct {
	nanos int64
	stack []string
}

// profile.proto field numbers.
const (
	fProfileSampleType  = 1
	fProfileSample      = 2
	fProfileLocation    = 4
	fProfileFunction    = 5
	fProfileStringTable = 6

	fValueTypeType = 1

	fSampleLocationID = 1
	fSampleValue      = 2

	fLocationID   = 1
	fLocationLine = 4
	fLineFunction = 1

	fFunctionID   = 1
	fFunctionName = 2
)

// parseCPUProfile decodes a gzipped CPU profile's samples.
func parseCPUProfile(data []byte) ([]profSample, error) {
	zr, err := gzip.NewReader(bytes.NewReader(data))
	if err != nil {
		return nil, fmt.Errorf("pprof: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("pprof: %w", err)
	}

	type rawSample struct {
		locs []uint64
		vals []int64
	}
	var (
		typeIdx  []int64 // string index of each sample type's name
		samples  []rawSample
		locLines = map[uint64][]uint64{} // location id -> function ids, leaf first
		funcName = map[uint64]int64{}    // function id -> string index
		strs     []string
	)
	err = eachField(raw, func(num int, wire int, v uint64, b []byte) error {
		switch num {
		case fProfileSampleType:
			var t int64
			err := eachField(b, func(n, _ int, v uint64, _ []byte) error {
				if n == fValueTypeType {
					t = int64(v)
				}
				return nil
			})
			typeIdx = append(typeIdx, t)
			return err
		case fProfileSample:
			var s rawSample
			err := eachField(b, func(n, w int, v uint64, p []byte) error {
				switch n {
				case fSampleLocationID:
					return appendVarints(&s.locs, w, v, p)
				case fSampleValue:
					var u []uint64
					if err := appendVarints(&u, w, v, p); err != nil {
						return err
					}
					for _, x := range u {
						s.vals = append(s.vals, int64(x))
					}
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case fProfileLocation:
			var id uint64
			var fns []uint64
			err := eachField(b, func(n, _ int, v uint64, p []byte) error {
				switch n {
				case fLocationID:
					id = v
				case fLocationLine:
					return eachField(p, func(n, _ int, v uint64, _ []byte) error {
						if n == fLineFunction {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locLines[id] = fns
			return err
		case fProfileFunction:
			var id uint64
			var name int64
			err := eachField(b, func(n, _ int, v uint64, _ []byte) error {
				switch n {
				case fFunctionID:
					id = v
				case fFunctionName:
					name = int64(v)
				}
				return nil
			})
			funcName[id] = name
			return err
		case fProfileStringTable:
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	str := func(i int64) string {
		if i < 0 || i >= int64(len(strs)) {
			return "?"
		}
		return strs[i]
	}
	// The CPU-time value is the one whose type is "cpu"; a profile with
	// one value type carries only counts.
	vi := -1
	for i, t := range typeIdx {
		if str(t) == "cpu" {
			vi = i
		}
	}
	if vi < 0 {
		return nil, errors.New("pprof: not a CPU profile (no cpu sample type)")
	}
	var out []profSample
	for _, s := range samples {
		if vi >= len(s.vals) {
			return nil, errors.New("pprof: sample without a cpu value")
		}
		ps := profSample{nanos: s.vals[vi]}
		for _, loc := range s.locs {
			for _, fn := range locLines[loc] {
				ps.stack = append(ps.stack, str(funcName[fn]))
			}
		}
		out = append(out, ps)
	}
	return out, nil
}

// eachField calls fn for every field of a protobuf message: v holds a
// varint or fixed-width value, b a length-delimited payload.
func eachField(msg []byte, fn func(num, wire int, v uint64, b []byte) error) error {
	for len(msg) > 0 {
		key, n := binary.Uvarint(msg)
		if n <= 0 {
			return errors.New("pprof: bad field key")
		}
		msg = msg[n:]
		num, wire := int(key>>3), int(key&7)
		var v uint64
		var b []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(msg)
			if n <= 0 {
				return errors.New("pprof: bad varint")
			}
			msg = msg[n:]
		case 1:
			if len(msg) < 8 {
				return errors.New("pprof: short fixed64")
			}
			v, msg = binary.LittleEndian.Uint64(msg), msg[8:]
		case 2:
			l, n := binary.Uvarint(msg)
			if n <= 0 || uint64(len(msg)-n) < l {
				return errors.New("pprof: bad length")
			}
			b, msg = msg[n:n+int(l)], msg[n+int(l):]
		case 5:
			if len(msg) < 4 {
				return errors.New("pprof: short fixed32")
			}
			v, msg = uint64(binary.LittleEndian.Uint32(msg)), msg[4:]
		default:
			return fmt.Errorf("pprof: unsupported wire type %d", wire)
		}
		if err := fn(num, wire, v, b); err != nil {
			return err
		}
	}
	return nil
}

// appendVarints appends a repeated integer field, packed or not.
func appendVarints(dst *[]uint64, wire int, v uint64, b []byte) error {
	if wire != 2 {
		*dst = append(*dst, v)
		return nil
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("pprof: bad packed varint")
		}
		*dst = append(*dst, x)
		b = b[n:]
	}
	return nil
}

// simLayers are the simulator packages whose self time is reported per
// layer; self time elsewhere goes to one of the rt.* buckets.
var simLayers = []string{"sim", "simnet", "blockdev", "cgroup", "vmd", "workload", "core",
	"guest", "mem", "host", "cluster", "dist", "trace", "metrics"}

// selfBuckets are every self-time bucket, in report order: the layers,
// then the runtime split.
var selfBuckets = append(append([]string{}, simLayers...), "rt.alloc", "rt.gc", "rt.other")

// bucketOf attributes one sample's stack (leaf first) to a bucket. A
// standard-library leaf, such as an inlined time.Duration.Seconds, is
// charged to its nearest caller, so a layer's self time includes the
// library code it calls. A runtime leaf is followed up its runtime
// callers: GC work (an allocation's GC assist included) is rt.gc,
// allocation and map work is rt.alloc, and the rest is rt.other, as is
// time in simulator packages outside the layers and in the benchmark.
func bucketOf(stack []string) string {
	for i, fn := range stack {
		pkg := funcPackage(fn)
		switch {
		case isRuntime(pkg):
			return runtimeBucket(stack[i:])
		case strings.HasPrefix(pkg, "agilemig/internal/"):
			layer := strings.TrimPrefix(pkg, "agilemig/internal/")
			for _, l := range simLayers {
				if layer == l {
					return l
				}
			}
			return "rt.other"
		case pkg == "main" || strings.HasPrefix(pkg, "agilemig/"):
			return "rt.other"
		}
	}
	return "rt.other"
}

// runtimeBucket classifies a stack whose leaf is in the runtime by the
// runtime frames above it.
func runtimeBucket(stack []string) string {
	alloc := false
	for _, fn := range stack {
		pkg := funcPackage(fn)
		if !isRuntime(pkg) {
			break
		}
		if isGCFunc(fn) {
			return "rt.gc"
		}
		alloc = alloc || isAllocFunc(fn, pkg)
	}
	if alloc {
		return "rt.alloc"
	}
	return "rt.other"
}

// funcPackage returns the import path of a symbol such as
// "agilemig/internal/vmd.(*Namespace).Read.func1".
func funcPackage(fn string) string {
	slash := strings.LastIndex(fn, "/")
	if dot := strings.Index(fn[slash+1:], "."); dot >= 0 {
		return fn[:slash+1+dot]
	}
	return fn
}

func isRuntime(pkg string) bool {
	return pkg == "runtime" || strings.HasPrefix(pkg, "runtime/internal/") || strings.HasPrefix(pkg, "internal/runtime/")
}

func isGCFunc(fn string) bool {
	for _, s := range []string{"runtime.gc", "runtime.markroot", "runtime.scanobject", "runtime.scanblock",
		"runtime.scanstack", "runtime.scanframe", "runtime.greyobject", "runtime.(*gcWork)", "runtime.(*gcControllerState)",
		"runtime.bgsweep", "runtime.sweepone", "runtime.(*sweepLocked)", "runtime.(*mspan).sweep",
		"runtime.bgscavenge", "runtime.(*scavengerState)", "runtime.wbBufFlush", "runtime.findObject"} {
		if strings.HasPrefix(fn, s) {
			return true
		}
	}
	return false
}

func isAllocFunc(fn, pkg string) bool {
	if pkg == "internal/runtime/maps" {
		return true
	}
	for _, s := range []string{"runtime.mallocgc", "runtime.newobject", "runtime.newarray", "runtime.growslice",
		"runtime.makeslice", "runtime.makemap", "runtime.map", "runtime.rawstring", "runtime.rawbyteslice",
		"runtime.concatstring", "runtime.(*mcache)", "runtime.(*mcentral)", "runtime.(*mheap)"} {
		if strings.HasPrefix(fn, s) {
			return true
		}
	}
	return false
}

// selfTimes attributes a CPU profile's samples to the self-time buckets,
// in seconds. Every sample lands in exactly one bucket, so the buckets
// sum to the profile's total.
func selfTimes(data []byte) (map[string]float64, error) {
	samples, err := parseCPUProfile(data)
	if err != nil {
		return nil, err
	}
	out := map[string]float64{}
	for _, s := range samples {
		out[bucketOf(s.stack)] += float64(s.nanos) / 1e9
	}
	return out, nil
}
