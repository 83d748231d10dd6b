package graph

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"unsafe"
)

// Binary CSR serialization. The format is designed so that a graph file can
// be memory-mapped and used *in place*: after the fixed header come the raw
// CSR arrays (offsets, adjacency) and optional per-node float64 attribute
// tables, each section aligned so a mapped byte range can be reinterpreted
// as a typed slice with no decode pass and no heap copy. A million-node
// graph therefore opens in O(1) and pages in only the neighborhoods a crawl
// actually touches.
//
// Layout (all integers little-endian):
//
//	 0  magic    [8]byte "WNWCSR1\n"
//	 8  bom      uint32  0x01020304 (byte-order mark for the mmap fast path)
//	12  reserved uint32  0
//	16  n        uint64  number of nodes
//	24  adjLen   uint64  len(adj) = 2·|E|
//	32  attrs    uint64  number of attribute tables
//	40  attrOff  uint64  byte offset of the attribute section (0 if none)
//	48  offsets  (n+1)·int32
//	    adj      adjLen·int32
//	    pad      to an 8-byte boundary
//	    per attribute, sorted by name:
//	      nameLen uint32, name bytes, pad to 8, values n·float64
const (
	csrMagic      = "WNWCSR1\n"
	csrHeaderSize = 48
	csrBOM        = 0x01020304
)

// WriteCSR writes the graph (plus optional per-node attribute tables, which
// must each have exactly NumNodes values) in the binary CSR format.
// Attribute tables are written in sorted name order so output is
// deterministic.
func WriteCSR(w io.Writer, g *Graph, attrs map[string][]float64) error {
	n := g.NumNodes()
	names := make([]string, 0, len(attrs))
	for name, vals := range attrs {
		if len(vals) != n {
			return fmt.Errorf("graph: attribute %q has %d values for %d nodes", name, len(vals), n)
		}
		names = append(names, name)
	}
	sort.Strings(names)

	bw := bufio.NewWriterSize(w, 1<<20)
	var hdr [csrHeaderSize]byte
	copy(hdr[:8], csrMagic)
	binary.LittleEndian.PutUint32(hdr[8:], csrBOM)
	binary.LittleEndian.PutUint64(hdr[16:], uint64(n))
	binary.LittleEndian.PutUint64(hdr[24:], uint64(len(g.adj)))
	binary.LittleEndian.PutUint64(hdr[32:], uint64(len(names)))
	arraysEnd := uint64(csrHeaderSize) + 4*uint64(n+1) + 4*uint64(len(g.adj))
	attrOff := uint64(0)
	if len(names) > 0 {
		attrOff = pad8(arraysEnd)
	}
	binary.LittleEndian.PutUint64(hdr[40:], attrOff)
	if _, err := bw.Write(hdr[:]); err != nil {
		return err
	}

	var scratch [8]byte
	writeInt32s := func(xs []int32) error {
		for _, x := range xs {
			binary.LittleEndian.PutUint32(scratch[:4], uint32(x))
			if _, err := bw.Write(scratch[:4]); err != nil {
				return err
			}
		}
		return nil
	}
	if len(g.offsets) == 0 {
		// Zero-value graph: materialize the single offsets entry.
		if err := writeInt32s([]int32{0}); err != nil {
			return err
		}
	} else if err := writeInt32s(g.offsets); err != nil {
		return err
	}
	if err := writeInt32s(g.adj); err != nil {
		return err
	}
	if len(names) > 0 {
		if err := writePad(bw, int(attrOff-arraysEnd)); err != nil {
			return err
		}
		for _, name := range names {
			binary.LittleEndian.PutUint32(scratch[:4], uint32(len(name)))
			if _, err := bw.Write(scratch[:4]); err != nil {
				return err
			}
			if _, err := bw.WriteString(name); err != nil {
				return err
			}
			if err := writePad(bw, int(pad8(uint64(4+len(name)))-uint64(4+len(name)))); err != nil {
				return err
			}
			for _, v := range attrs[name] {
				binary.LittleEndian.PutUint64(scratch[:], math.Float64bits(v))
				if _, err := bw.Write(scratch[:]); err != nil {
					return err
				}
			}
		}
	}
	return bw.Flush()
}

func pad8(off uint64) uint64 { return (off + 7) &^ 7 }

func writePad(w io.Writer, k int) error {
	var zero [8]byte
	_, err := w.Write(zero[:k])
	return err
}

// SaveCSR writes the graph to the named file in binary CSR format, creating
// or truncating it.
func SaveCSR(path string, g *Graph, attrs map[string][]float64) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := WriteCSR(f, g, attrs); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// IsCSRFile reports whether the named file starts with the binary CSR magic.
// It is how the CLIs tell a binary graph from a plain-text edge list.
func IsCSRFile(path string) bool {
	f, err := os.Open(path)
	if err != nil {
		return false
	}
	defer f.Close()
	var m [8]byte
	if _, err := io.ReadFull(f, m[:]); err != nil {
		return false
	}
	return string(m[:]) == csrMagic
}

// MappedCSR is a graph opened from a binary CSR file. When the platform
// supports memory mapping, the CSR arrays and attribute tables are views
// straight into the mapped file — no edge is ever copied to the heap and
// only touched pages are resident; otherwise the file is decoded into
// memory with identical semantics. Close releases the mapping.
//
// A MappedCSR is immutable after Open and safe for concurrent readers.
type MappedCSR struct {
	data      []byte // mapped (or heap-read) file contents; nil after Close
	mapped    bool
	view      Graph
	attrs     map[string][]float64
	attrNames []string
}

// OpenCSR opens a binary CSR file, memory-mapping it when possible.
func OpenCSR(path string) (*MappedCSR, error) {
	data, mapped, err := mapFile(path)
	if err != nil {
		return nil, err
	}
	m, err := parseCSR(data)
	if err != nil {
		if mapped {
			unmapFile(data)
		}
		return nil, err
	}
	m.mapped = mapped
	return m, nil
}

// LoadCSR reads a binary CSR file fully into memory and returns a regular
// heap-backed Graph plus its attribute tables. Use OpenCSR to avoid the
// copy.
func LoadCSR(path string) (*Graph, map[string][]float64, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, nil, err
	}
	m, err := parseCSR(data)
	if err != nil {
		return nil, nil, err
	}
	return &m.view, m.attrs, nil
}

func parseCSR(data []byte) (*MappedCSR, error) {
	if len(data) < csrHeaderSize || string(data[:8]) != csrMagic {
		return nil, fmt.Errorf("graph: not a binary CSR file")
	}
	if binary.LittleEndian.Uint32(data[8:]) != csrBOM {
		return nil, fmt.Errorf("graph: binary CSR byte-order mark mismatch")
	}
	n := binary.LittleEndian.Uint64(data[16:])
	adjLen := binary.LittleEndian.Uint64(data[24:])
	attrCount := binary.LittleEndian.Uint64(data[32:])
	attrOff := binary.LittleEndian.Uint64(data[40:])
	// Overflow-safe size validation: each array individually must fit in
	// the file before the combined end offset is computed, so a crafted
	// header cannot wrap the arithmetic and pass the bounds check.
	size := uint64(len(data))
	if n >= size/4 || adjLen > size/4 || adjLen > uint64(1)<<31-1 {
		return nil, fmt.Errorf("graph: binary CSR header inconsistent with file size (n=%d adj=%d, %d bytes)", n, adjLen, size)
	}
	arraysEnd := uint64(csrHeaderSize) + 4*(n+1) + 4*adjLen
	if size < arraysEnd {
		return nil, fmt.Errorf("graph: binary CSR truncated (have %d bytes, CSR arrays need %d)", len(data), arraysEnd)
	}
	if !hostLittleEndian() {
		return nil, fmt.Errorf("graph: binary CSR requires a little-endian host")
	}
	m := &MappedCSR{data: data}
	offsets := int32View(data[csrHeaderSize : csrHeaderSize+4*(n+1)])
	adj := int32View(data[csrHeaderSize+4*(n+1) : arraysEnd])
	if uint64(len(offsets)) != n+1 || offsets[0] != 0 || uint64(offsets[n]) != adjLen {
		return nil, fmt.Errorf("graph: binary CSR offsets inconsistent with adjacency length")
	}
	// Monotonicity guarantees every Neighbors slice is in range; this scan
	// touches only the offsets section (the adjacency stays un-paged —
	// neighbor *values* are trusted, like every other graph source here).
	for i := uint64(0); i < n; i++ {
		if offsets[i] > offsets[i+1] {
			return nil, fmt.Errorf("graph: binary CSR offsets not monotone at node %d", i)
		}
	}
	m.view = Graph{offsets: offsets, adj: adj}
	if attrCount > 0 {
		// Same overflow discipline as the arrays: every offset is kept
		// within [0, size] before any arithmetic that could wrap, so a
		// crafted attrOff/nameLen errors out instead of panicking.
		if attrOff < arraysEnd || attrOff > size {
			return nil, fmt.Errorf("graph: binary CSR attribute offset %d outside file", attrOff)
		}
		// Every table takes at least 8 bytes (its name length, padded), so
		// a count the section cannot hold is rejected before it sizes the
		// map below.
		if attrCount > (size-attrOff)/8 {
			return nil, fmt.Errorf("graph: binary CSR claims %d attribute tables in a %d-byte section", attrCount, size-attrOff)
		}
		m.attrs = make(map[string][]float64, attrCount)
		pos := attrOff
		for i := uint64(0); i < attrCount; i++ {
			if size-pos < 4 {
				return nil, fmt.Errorf("graph: binary CSR attribute section truncated")
			}
			nameLen := uint64(binary.LittleEndian.Uint32(data[pos:]))
			if size-(pos+4) < nameLen {
				return nil, fmt.Errorf("graph: binary CSR attribute name truncated")
			}
			name := string(data[pos+4 : pos+4+nameLen])
			valsOff := pos + pad8(4+nameLen)
			if valsOff > size || size-valsOff < 8*n {
				return nil, fmt.Errorf("graph: binary CSR attribute %q values truncated", name)
			}
			valsEnd := valsOff + 8*n
			m.attrs[name] = float64View(data[valsOff:valsEnd])
			m.attrNames = append(m.attrNames, name)
			pos = valsEnd
		}
	}
	return m, nil
}

func hostLittleEndian() bool {
	x := uint32(csrBOM)
	return *(*byte)(unsafe.Pointer(&x)) == 0x04
}

func int32View(b []byte) []int32 {
	if len(b) == 0 {
		return nil
	}
	return unsafe.Slice((*int32)(unsafe.Pointer(&b[0])), len(b)/4)
}

func float64View(b []byte) []float64 {
	if len(b) == 0 {
		return nil
	}
	return unsafe.Slice((*float64)(unsafe.Pointer(&b[0])), len(b)/8)
}

// Graph returns the CSR topology as a *Graph whose storage aliases the
// mapped file — all Graph methods work without copying any edge to the
// heap. The graph must not be used after Close.
func (m *MappedCSR) Graph() *Graph { return &m.view }

// NumNodes returns |V|.
func (m *MappedCSR) NumNodes() int { return m.view.NumNodes() }

// NumEdges returns |E|.
func (m *MappedCSR) NumEdges() int { return m.view.NumEdges() }

// Neighbors returns the sorted neighbor list of v, aliasing the mapped file.
func (m *MappedCSR) Neighbors(v int) []int32 { return m.view.Neighbors(v) }

// Degree returns d(v).
func (m *MappedCSR) Degree(v int) int { return m.view.Degree(v) }

// Attr returns the stored attribute table for name, or nil if absent. The
// slice aliases the mapped file and must not be modified.
func (m *MappedCSR) Attr(name string) []float64 { return m.attrs[name] }

// AttrNames lists the stored attribute tables in file (sorted-name) order.
func (m *MappedCSR) AttrNames() []string { return m.attrNames }

// Close releases the mapping. Neighbor lists and attribute slices obtained
// earlier must not be used afterwards.
func (m *MappedCSR) Close() error {
	if m.data == nil {
		return nil
	}
	data := m.data
	m.data = nil
	m.view = Graph{}
	m.attrs = nil
	if m.mapped {
		return unmapFile(data)
	}
	return nil
}
