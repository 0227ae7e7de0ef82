package ml

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
)

// Model serialization lets the control plane persist a fitted model as a
// last-known-good bundle and restore it byte-identically after a rollback
// or restart — the durability half of the self-healing lifecycle. The
// format is self-framing and checksummed like the store's snapshot:
//
//	tree:   magic "CLTR" | version u16 | classes u32 | dims u32 |
//	        cfg (maxDepth i32, minSplit i32, maxFeat i32, seed i64) |
//	        node count u32, then per node:
//	        feature i32 | threshold f64 | left u32 | right u32 |
//	        total f64 | counts f64 × classes
//	        | crc32(everything after magic+version)
//	forest: magic "CLFR" | version u16 | classes u32 | tree count u32 |
//	        per tree: len u32 | tree bytes | crc32(header)
//
// All integers little-endian. Restored models predict identically to the
// originals (same flat node layout, same histogram values).

const (
	treeMagic     = "CLTR"
	forestMagic   = "CLFR"
	modelVersion  = 1
	maxModelNodes = 1 << 24 // a flipped count must not drive a huge alloc
)

// errBadModel reports model bytes that fail structural validation or
// checksum — never a panic.
var errBadModel = errors.New("ml: bad model bytes")

// MarshalBinary serializes the fitted tree.
func (t *Tree) MarshalBinary() ([]byte, error) {
	b := make([]byte, 0, 64+len(t.nodes)*(24+8*t.classes))
	b = append(b, treeMagic...)
	b = binary.LittleEndian.AppendUint16(b, modelVersion)
	b = binary.LittleEndian.AppendUint32(b, uint32(t.classes))
	b = binary.LittleEndian.AppendUint32(b, uint32(t.dims))
	b = binary.LittleEndian.AppendUint32(b, uint32(int32(t.cfg.MaxDepth)))
	b = binary.LittleEndian.AppendUint32(b, uint32(int32(t.cfg.MinSamplesSplit)))
	b = binary.LittleEndian.AppendUint32(b, uint32(int32(t.cfg.MaxFeatures)))
	b = binary.LittleEndian.AppendUint64(b, uint64(t.cfg.Seed))
	b = binary.LittleEndian.AppendUint32(b, uint32(len(t.nodes)))
	for i := range t.nodes {
		n := &t.nodes[i]
		b = binary.LittleEndian.AppendUint32(b, uint32(int32(n.feature)))
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(n.threshold))
		b = binary.LittleEndian.AppendUint32(b, uint32(n.left))
		b = binary.LittleEndian.AppendUint32(b, uint32(n.right))
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(n.total))
		if len(n.counts) != t.classes {
			return nil, fmt.Errorf("ml: node %d has %d counts, tree has %d classes", i, len(n.counts), t.classes)
		}
		for _, c := range n.counts {
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(c))
		}
	}
	b = binary.LittleEndian.AppendUint32(b, crc32.ChecksumIEEE(b[6:]))
	return b, nil
}

// UnmarshalTree restores a tree serialized by MarshalBinary. Corrupt input
// yields errBadModel; the returned tree predicts identically to the
// original.
func UnmarshalTree(b []byte) (*Tree, error) {
	body, err := checkModelFrame(b, treeMagic)
	if err != nil {
		return nil, err
	}
	return decodeTree(body)
}

// checkModelFrame validates magic, version, and trailing CRC, returning
// the body between the version and the checksum.
func checkModelFrame(b []byte, magic string) ([]byte, error) {
	if len(b) < 10 {
		return nil, fmt.Errorf("%w: short", errBadModel)
	}
	if string(b[:4]) != magic {
		return nil, fmt.Errorf("%w: magic %q", errBadModel, b[:4])
	}
	if v := binary.LittleEndian.Uint16(b[4:6]); v != modelVersion {
		return nil, fmt.Errorf("%w: version %d", errBadModel, v)
	}
	body, sum := b[6:len(b)-4], binary.LittleEndian.Uint32(b[len(b)-4:])
	if crc32.ChecksumIEEE(body) != sum {
		return nil, fmt.Errorf("%w: checksum mismatch", errBadModel)
	}
	return body, nil
}

// decodeTree parses the checksummed tree body.
func decodeTree(b []byte) (*Tree, error) {
	if len(b) < 28 {
		return nil, fmt.Errorf("%w: short tree header", errBadModel)
	}
	t := &Tree{
		classes: int(binary.LittleEndian.Uint32(b[0:4])),
		dims:    int(binary.LittleEndian.Uint32(b[4:8])),
		cfg: TreeConfig{
			MaxDepth:        int(int32(binary.LittleEndian.Uint32(b[8:12]))),
			MinSamplesSplit: int(int32(binary.LittleEndian.Uint32(b[12:16]))),
			MaxFeatures:     int(int32(binary.LittleEndian.Uint32(b[16:20]))),
			Seed:            int64(binary.LittleEndian.Uint64(b[20:28])),
		},
	}
	if t.classes <= 0 || t.classes > 1<<16 || t.dims < 0 || t.dims > 1<<16 {
		return nil, fmt.Errorf("%w: %d classes / %d dims", errBadModel, t.classes, t.dims)
	}
	nNodes := int(binary.LittleEndian.Uint32(b[28:32]))
	if nNodes <= 0 || nNodes > maxModelNodes {
		return nil, fmt.Errorf("%w: %d nodes", errBadModel, nNodes)
	}
	off := 32
	nodeSize := 28 + 8*t.classes
	if len(b)-off != nNodes*nodeSize {
		return nil, fmt.Errorf("%w: %d body bytes for %d nodes", errBadModel, len(b)-off, nNodes)
	}
	t.nodes = make([]treeNode, nNodes)
	for i := range t.nodes {
		n := &t.nodes[i]
		n.feature = int(int32(binary.LittleEndian.Uint32(b[off : off+4])))
		n.threshold = math.Float64frombits(binary.LittleEndian.Uint64(b[off+4 : off+12]))
		n.left = int(binary.LittleEndian.Uint32(b[off+12 : off+16]))
		n.right = int(binary.LittleEndian.Uint32(b[off+16 : off+20]))
		n.total = math.Float64frombits(binary.LittleEndian.Uint64(b[off+20 : off+28]))
		off += 28
		if n.feature >= t.dims || (n.feature >= 0 && (n.left >= nNodes || n.right >= nNodes)) {
			return nil, fmt.Errorf("%w: node %d references out of range", errBadModel, i)
		}
		n.counts = make([]float64, t.classes)
		for c := range n.counts {
			n.counts[c] = math.Float64frombits(binary.LittleEndian.Uint64(b[off : off+8]))
			off += 8
		}
	}
	return t, nil
}

// MarshalBinary serializes the forest (every member tree framed inside).
func (f *Forest) MarshalBinary() ([]byte, error) {
	b := make([]byte, 0, 1<<16)
	b = append(b, forestMagic...)
	b = binary.LittleEndian.AppendUint16(b, modelVersion)
	b = binary.LittleEndian.AppendUint32(b, uint32(f.classes))
	b = binary.LittleEndian.AppendUint32(b, uint32(len(f.trees)))
	for i, t := range f.trees {
		tb, err := t.MarshalBinary()
		if err != nil {
			return nil, fmt.Errorf("ml: forest tree %d: %w", i, err)
		}
		b = binary.LittleEndian.AppendUint32(b, uint32(len(tb)))
		b = append(b, tb...)
	}
	b = binary.LittleEndian.AppendUint32(b, crc32.ChecksumIEEE(b[6:]))
	return b, nil
}

// unmarshalForest restores a forest serialized by MarshalBinary.
func unmarshalForest(b []byte) (*Forest, error) {
	body, err := checkModelFrame(b, forestMagic)
	if err != nil {
		return nil, err
	}
	if len(body) < 8 {
		return nil, fmt.Errorf("%w: short forest header", errBadModel)
	}
	f := &Forest{classes: int(binary.LittleEndian.Uint32(body[0:4]))}
	nTrees := int(binary.LittleEndian.Uint32(body[4:8]))
	if f.classes <= 0 || nTrees <= 0 || nTrees > 1<<16 {
		return nil, fmt.Errorf("%w: %d classes / %d trees", errBadModel, f.classes, nTrees)
	}
	off := 8
	f.trees = make([]*Tree, nTrees)
	for i := range f.trees {
		if off+4 > len(body) {
			return nil, fmt.Errorf("%w: truncated at tree %d", errBadModel, i)
		}
		tl := int(binary.LittleEndian.Uint32(body[off : off+4]))
		off += 4
		if tl < 0 || off+tl > len(body) {
			return nil, fmt.Errorf("%w: tree %d claims %d bytes", errBadModel, i, tl)
		}
		t, err := UnmarshalTree(body[off : off+tl])
		if err != nil {
			return nil, fmt.Errorf("ml: forest tree %d: %w", i, err)
		}
		if t.classes != f.classes {
			return nil, fmt.Errorf("%w: tree %d has %d classes, forest %d", errBadModel, i, t.classes, f.classes)
		}
		f.trees[i] = t
		off += tl
	}
	if off != len(body) {
		return nil, fmt.Errorf("%w: %d trailing bytes", errBadModel, len(body)-off)
	}
	return f, nil
}
