// Package trace provides the video frame-size trace container used across
// the library: a sequence of per-frame byte counts annotated with MPEG frame
// types (I/P/B) and group-of-pictures (GOP) metadata. It mirrors the shape
// of the empirical record in the paper's Table 1 (bytes per frame of an
// MPEG-1 encoding at 30 frames/s with a 12-frame GOP) and supports the
// slicing the modeling pipeline needs: extracting one frame type, computing
// summary statistics, and round-tripping through CSV and a compact binary
// format.
package trace

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"strconv"
	"strings"

	"vbrsim/internal/stats"
)

// FrameType identifies the MPEG-1 coding mode of a frame.
type FrameType uint8

// Frame types in an MPEG-1 stream.
const (
	FrameI FrameType = iota // intraframe-coded
	FrameP                  // forward predicted
	FrameB                  // bidirectionally predicted
)

// String returns "I", "P" or "B".
func (t FrameType) String() string {
	switch t {
	case FrameI:
		return "I"
	case FrameP:
		return "P"
	case FrameB:
		return "B"
	default:
		return fmt.Sprintf("FrameType(%d)", uint8(t))
	}
}

// ParseFrameType converts "I"/"P"/"B" (any case) to a FrameType.
func ParseFrameType(s string) (FrameType, error) {
	switch strings.ToUpper(strings.TrimSpace(s)) {
	case "I":
		return FrameI, nil
	case "P":
		return FrameP, nil
	case "B":
		return FrameB, nil
	default:
		return 0, fmt.Errorf("trace: unknown frame type %q", s)
	}
}

// DefaultGOP is the paper's group-of-pictures pattern: IBBPBBPBBPBB, twelve
// frames with I frames appearing periodically once every 12 frames.
var DefaultGOP = []FrameType{
	FrameI, FrameB, FrameB, FrameP, FrameB, FrameB,
	FrameP, FrameB, FrameB, FrameP, FrameB, FrameB,
}

// Trace is a VBR video trace: per-frame sizes in bytes plus frame types.
// Types may be nil for traces without GOP structure (e.g. intraframe-only
// or slice-level records); all operations degrade gracefully in that case.
type Trace struct {
	// Sizes holds bytes per frame.
	Sizes []float64
	// Types holds the frame type of each frame; nil or same length as Sizes.
	Types []FrameType
	// FrameRate is frames per second (Table 1: 30).
	FrameRate float64
	// GOPLength is the I-frame period K_I (Table 1 codec: 12); 0 if unknown.
	GOPLength int
}

// Validate checks structural invariants.
func (tr *Trace) Validate() error {
	if len(tr.Sizes) == 0 {
		return errors.New("trace: empty trace")
	}
	if tr.Types != nil && len(tr.Types) != len(tr.Sizes) {
		return errors.New("trace: types/sizes length mismatch")
	}
	for i, s := range tr.Sizes {
		if s < 0 {
			return fmt.Errorf("trace: negative size at frame %d", i)
		}
	}
	return nil
}

// Len returns the number of frames.
func (tr *Trace) Len() int { return len(tr.Sizes) }

// Duration returns the playing time in seconds, or 0 when the frame rate is
// unknown.
func (tr *Trace) Duration() float64 {
	if tr.FrameRate <= 0 {
		return 0
	}
	return float64(len(tr.Sizes)) / tr.FrameRate
}

// ByType returns the sizes of all frames with the given type, in order.
// It returns nil when the trace carries no type information.
func (tr *Trace) ByType(t FrameType) []float64 {
	if tr.Types == nil {
		return nil
	}
	var out []float64
	for i, ft := range tr.Types {
		if ft == t {
			out = append(out, tr.Sizes[i])
		}
	}
	return out
}

// TypeCounts returns how many frames of each type the trace contains.
func (tr *Trace) TypeCounts() map[FrameType]int {
	out := map[FrameType]int{}
	for _, t := range tr.Types {
		out[t]++
	}
	return out
}

// Window returns the sub-trace of frames [lo, hi). It shares no storage
// with the original. It panics on an invalid range.
func (tr *Trace) Window(lo, hi int) *Trace {
	if lo < 0 || hi > len(tr.Sizes) || lo >= hi {
		panic("trace: invalid window")
	}
	out := &Trace{
		Sizes:     append([]float64(nil), tr.Sizes[lo:hi]...),
		FrameRate: tr.FrameRate,
		GOPLength: tr.GOPLength,
	}
	if tr.Types != nil {
		out.Types = append([]FrameType(nil), tr.Types[lo:hi]...)
	}
	return out
}

// Concat appends other's frames to a copy of the trace. Frame rate and GOP
// metadata come from the receiver; type information survives only if both
// traces carry it.
func (tr *Trace) Concat(other *Trace) *Trace {
	out := &Trace{
		Sizes:     append(append([]float64(nil), tr.Sizes...), other.Sizes...),
		FrameRate: tr.FrameRate,
		GOPLength: tr.GOPLength,
	}
	if tr.Types != nil && other.Types != nil {
		out.Types = append(append([]FrameType(nil), tr.Types...), other.Types...)
	}
	return out
}

// GOPTotals returns the total bytes of each complete group of pictures —
// the natural aggregation unit for Hurst estimation on interframe streams
// (it removes the deterministic I/P/B periodicity). The trailing partial
// GOP is dropped. It returns nil when GOPLength is unknown.
func (tr *Trace) GOPTotals() []float64 {
	if tr.GOPLength <= 0 {
		return nil
	}
	nGOP := len(tr.Sizes) / tr.GOPLength
	out := make([]float64, nGOP)
	for g := 0; g < nGOP; g++ {
		var s float64
		for i := g * tr.GOPLength; i < (g+1)*tr.GOPLength; i++ {
			s += tr.Sizes[i]
		}
		out[g] = s
	}
	return out
}

// Summary holds the per-trace statistics reported in Table 1 and used by the
// modeling pipeline.
type Summary struct {
	Frames      int
	Duration    float64 // seconds
	FrameRate   float64
	GOPLength   int
	MeanBytes   float64
	StdBytes    float64
	MinBytes    float64
	MaxBytes    float64
	PeakToMean  float64
	MeanBitRate float64 // bits per second, 0 when frame rate unknown
	TypeCounts  map[FrameType]int
}

// Summarize computes the trace summary.
func (tr *Trace) Summarize() Summary {
	mean, variance := stats.MeanVar(tr.Sizes)
	s := Summary{
		Frames:     len(tr.Sizes),
		Duration:   tr.Duration(),
		FrameRate:  tr.FrameRate,
		GOPLength:  tr.GOPLength,
		MeanBytes:  mean,
		StdBytes:   math.Sqrt(variance),
		MinBytes:   stats.Min(tr.Sizes),
		MaxBytes:   stats.Max(tr.Sizes),
		TypeCounts: tr.TypeCounts(),
	}
	if mean > 0 {
		s.PeakToMean = s.MaxBytes / mean
	}
	if tr.FrameRate > 0 {
		s.MeanBitRate = mean * 8 * tr.FrameRate
	}
	return s
}

// ---------------------------------------------------------------------------
// CSV format: one line per frame, "index,type,bytes" with a header line.

// WriteCSV writes the trace in a simple CSV form.
func (tr *Trace) WriteCSV(w io.Writer) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintf(bw, "# frame,type,bytes fps=%g gop=%d\n", tr.FrameRate, tr.GOPLength); err != nil {
		return err
	}
	for i, sz := range tr.Sizes {
		t := "?"
		if tr.Types != nil {
			t = tr.Types[i].String()
		}
		if _, err := fmt.Fprintf(bw, "%d,%s,%g\n", i, t, sz); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadCSV parses a trace written by WriteCSV.
func ReadCSV(r io.Reader) (*Trace, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	tr := &Trace{}
	haveTypes := true
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			// Header: extract fps= and gop= if present.
			for _, tok := range strings.Fields(line) {
				if v, ok := strings.CutPrefix(tok, "fps="); ok {
					if f, err := strconv.ParseFloat(v, 64); err == nil {
						tr.FrameRate = f
					}
				}
				if v, ok := strings.CutPrefix(tok, "gop="); ok {
					if g, err := strconv.Atoi(v); err == nil {
						tr.GOPLength = g
					}
				}
			}
			continue
		}
		parts := strings.Split(line, ",")
		if len(parts) != 3 {
			return nil, fmt.Errorf("trace: malformed CSV line %q", line)
		}
		sz, err := strconv.ParseFloat(strings.TrimSpace(parts[2]), 64)
		if err != nil {
			return nil, fmt.Errorf("trace: bad size in line %q: %v", line, err)
		}
		tr.Sizes = append(tr.Sizes, sz)
		if haveTypes {
			ft, err := ParseFrameType(parts[1])
			if err != nil {
				haveTypes = false
				tr.Types = nil
			} else {
				tr.Types = append(tr.Types, ft)
			}
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if err := tr.Validate(); err != nil {
		return nil, err
	}
	return tr, nil
}

// ---------------------------------------------------------------------------
// Binary format: magic, header, then float64 sizes and byte types.

var binaryMagic = [4]byte{'V', 'B', 'R', '1'}

// WriteBinary writes the trace in a compact binary format.
func (tr *Trace) WriteBinary(w io.Writer) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.Write(binaryMagic[:]); err != nil {
		return err
	}
	hdr := struct {
		Frames    uint64
		FrameRate float64
		GOPLength uint32
		HasTypes  uint32
	}{uint64(len(tr.Sizes)), tr.FrameRate, uint32(tr.GOPLength), 0}
	if tr.Types != nil {
		hdr.HasTypes = 1
	}
	if err := binary.Write(bw, binary.LittleEndian, hdr); err != nil {
		return err
	}
	if err := binary.Write(bw, binary.LittleEndian, tr.Sizes); err != nil {
		return err
	}
	if tr.Types != nil {
		types := make([]uint8, len(tr.Types))
		for i, t := range tr.Types {
			types[i] = uint8(t)
		}
		if err := binary.Write(bw, binary.LittleEndian, types); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadBinary parses a trace written by WriteBinary.
func ReadBinary(r io.Reader) (*Trace, error) {
	br := bufio.NewReader(r)
	var magic [4]byte
	if _, err := io.ReadFull(br, magic[:]); err != nil {
		return nil, err
	}
	if magic != binaryMagic {
		return nil, errors.New("trace: bad magic in binary trace")
	}
	var hdr struct {
		Frames    uint64
		FrameRate float64
		GOPLength uint32
		HasTypes  uint32
	}
	if err := binary.Read(br, binary.LittleEndian, &hdr); err != nil {
		return nil, err
	}
	const maxFrames = 1 << 28 // sanity cap: ~268M frames
	if hdr.Frames == 0 || hdr.Frames > maxFrames {
		return nil, fmt.Errorf("trace: implausible frame count %d", hdr.Frames)
	}
	tr := &Trace{
		Sizes:     make([]float64, hdr.Frames),
		FrameRate: hdr.FrameRate,
		GOPLength: int(hdr.GOPLength),
	}
	if err := binary.Read(br, binary.LittleEndian, tr.Sizes); err != nil {
		return nil, err
	}
	if hdr.HasTypes == 1 {
		types := make([]uint8, hdr.Frames)
		if err := binary.Read(br, binary.LittleEndian, types); err != nil {
			return nil, err
		}
		tr.Types = make([]FrameType, hdr.Frames)
		for i, t := range types {
			if t > uint8(FrameB) {
				return nil, fmt.Errorf("trace: invalid frame type %d at frame %d", t, i)
			}
			tr.Types[i] = FrameType(t)
		}
	}
	if err := tr.Validate(); err != nil {
		return nil, err
	}
	return tr, nil
}

// ---------------------------------------------------------------------------
// Files: the ".bin" suffix selects the binary format, anything else CSV.

// ReadFile reads a trace file written by WriteFile (or by WriteCSV or
// WriteBinary under the matching name).
func ReadFile(path string) (*Trace, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	if strings.HasSuffix(path, ".bin") {
		return ReadBinary(f)
	}
	return ReadCSV(f)
}

// WriteFile writes the trace to path, in the binary format when the name
// ends in ".bin" and as CSV otherwise.
func (tr *Trace) WriteFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if strings.HasSuffix(path, ".bin") {
		err = tr.WriteBinary(f)
	} else {
		err = tr.WriteCSV(f)
	}
	if err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
