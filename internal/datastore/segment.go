package datastore

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/bits"
	"slices"
	"time"

	"campuslab/internal/deflate"
	"campuslab/internal/frame"
	"campuslab/internal/inflate"
	"campuslab/internal/parallel"
)

// The cold tier's on-disk unit is the CLSG segment: an immutable,
// compressed, columnar encoding of one dense run of packets, the rows with
// IDs [minID, minID+count) in ID order, which is also time order (every
// row's ID and clamped timestamp are taken in one ingest section, so TS
// never steps back as the ID grows). A row's ID is minID plus its position,
// so no column stores it. Layout (all fixed integers little-endian, varints
// unsigned LEB128):
//
//	header (48 bytes):
//	    magic "CLSG" | version u16 | reserved u16 | count u32 |
//	    minID u64 | maxID u64 | minTS i64 | maxTS i64 | header crc32
//	    (maxID is minID+count-1; a header that says otherwise is refused)
//	columns, in fixed order, each a column-id byte and a frame checked
//	block:  colID u8 | encLen u32 | payload crc32 | payload:
//	  1 ts     first TS zigzag varint, then uvarint deltas (TS is
//	           non-decreasing along the run)
//	  2 actor  bit-packed, one bit per row, trailing bits zero
//	  3 data   uvarint block rows | uvarint block count | uvarint total
//	           raw bytes | per-row uvarint lengths | per-block uvarint
//	           compressed lengths | per-block crc32 of its stream (u32) |
//	           the blocks' DEFLATE streams, concatenated. Block b covers
//	           rows [b*blockRows, (b+1)*blockRows) and inflates
//	           independently, so a query decompresses only the blocks of
//	           the rows it returns instead of the whole column.
//	  4 index  the shard posting-list families, re-based to row positions:
//	           for proto/src.port/dst.port/link/label, ascending values
//	           each with an ascending delta-coded row list; then the six
//	           boolean-flag lists. The value families partition the rows,
//	           so this section doubles as the zone map's value sets, and
//	           the link and label families as a row's link and label.
//	  5 summary  each row's packet.Summary in 1024-row DEFLATE stripes,
//	           each with its own crc32 (segsum.go).
//
// The version field is 4. Versions 1 (one DEFLATE stream for the whole
// data column, no dict column), 2 (no summary column, no per-block CRCs)
// and 3 (an ID column and a link/label dictionary column beside these
// five) are no longer written or read: parseSegment answers them, like any
// other version, with errSegmentCorrupt.
//
// Column CRCs verify on first access, memoized per parsed blob.
// buildSegDir (segdir.go) checksums and decodes every column once into
// the segment's resident directory, and the attach-time path
// (openSegMeta) verifies every column eagerly too. A cursor that later
// reads block or stripe streams out of the file checks each stream's own
// CRC before inflating it, not the whole column's again. Every decode
// validates structure strictly (sorted runs, total partitions, exact
// column lengths, no trailing bytes) and every corruption — CRC mismatch,
// truncation, bit flips — surfaces as an error wrapping errSegmentCorrupt,
// never a panic or a silently wrong row.

const (
	segMagic   = "CLSG"
	segVersion = 4 // the only version written or read

	segColTS    = 1
	segColActor = 2
	segColData  = 3
	segColIndex = 4
	segNumCols  = 5 // segColSummary is the last

	segHeaderSize = 48
	// segBlockRows is the writer's rows per independently-compressed
	// data block: small enough that a needle query inflates a sliver,
	// large enough that DEFLATE still sees real context.
	segBlockRows = 32
	// segMaxCount bounds rows per segment (sanity cap well above any
	// policy's SegmentPackets); segMaxData bounds the decompressed data
	// column; segMaxPacket is the snapshot/WAL/wire per-packet cap.
	segMaxCount  = 1 << 22
	segMaxData   = 1 << 30
	segMaxPacket = frame.MaxRecordData
)

// errSegmentCorrupt reports a segment that failed structural or checksum
// validation. Every decode error wraps it.
var errSegmentCorrupt = errors.New("datastore: corrupt segment")

func segErr(format string, args ...any) error {
	return fmt.Errorf("%w: %s", errSegmentCorrupt, fmt.Sprintf(format, args...))
}

// zigzag maps signed deltas onto unsigned varint space.
func zigzag(v int64) uint64   { return uint64(v<<1) ^ uint64(v>>63) }
func unzigzag(z uint64) int64 { return int64(z>>1) ^ -int64(z&1) }

// segMeta is the resident per-segment metadata: row count, ID/TS bounds,
// and the zone map. Everything queries need to prune a segment without
// touching its columns.
type segMeta struct {
	count        int
	minID, maxID PacketID
	minTS, maxTS time.Duration
	zone         segZone
}

// segZone is a segment's zone map: per value family, the exact sorted set
// of distinct values (up to segZoneMaxVals; nil beyond that, leaving the
// min/max range), plus flag presence. mayMatch answers "could any row
// satisfy all of the plan's equality keys" without reading a column.
type segZone struct {
	vals     [numFams][]uint16
	min, max [numFams]uint16
	flags    [numFlags]bool
}

// segZoneMaxVals caps the exact value set a zone map keeps resident per
// family; higher-cardinality families degrade to a min/max range.
const segZoneMaxVals = 1024

// mayMatch reports whether the segment could contain a row satisfying all
// the plan's indexed equality conjuncts. False is a proof of absence;
// true only means "must decode to know".
func (z *segZone) mayMatch(keys []ixRef) bool {
	for _, k := range keys {
		if !k.inDomain() {
			return false
		}
		if k.kind == ixFlag {
			if !z.flags[k.val] {
				return false
			}
			continue
		}
		fi, v := k.kind-1, uint16(k.val)
		if v < z.min[fi] || v > z.max[fi] {
			return false
		}
		if vs := z.vals[fi]; vs != nil { // nil: the range is all there is
			if _, found := slices.BinarySearch(vs, v); !found {
				return false
			}
		}
	}
	return true
}

// segPostings is a segment's index in its one in-memory form: per value
// family the ascending distinct values, each owning a contiguous run of
// one shared row slab, then the flag lists in the same slab. Seal builds
// it from the row run and serialises the index column from it;
// decodeIndex rebuilds it from the index column; every query reads it.
// Two allocations per family, and nothing in it points into the segment
// file.
type segPostings struct {
	vals  [numFams][]uint16    // ascending distinct values (every family's domain fits 16 bits)
	start [numFams][]uint32    // len(vals)+1: value i owns rows[start[i]:start[i+1]]
	flags [numFlags + 1]uint32 // flag fl owns rows[flags[fl]:flags[fl+1]]
	rows  []uint32
}

// lookup returns the ascending row list for one planner key (nil when
// absent). The list is a view into the slab: callers must not write it.
func (px *segPostings) lookup(ref ixRef) []uint32 {
	switch {
	case !ref.inDomain():
		return nil
	case ref.kind == ixFlag:
		return px.rows[px.flags[ref.val]:px.flags[ref.val+1]]
	}
	fi := ref.kind - 1
	i, found := slices.BinarySearch(px.vals[fi], uint16(ref.val))
	if !found {
		return nil
	}
	return px.rows[px.start[fi][i]:px.start[fi][i+1]]
}

// zone derives the resident zone map. It shares the value sets it keeps
// with px; neither is written after it is built.
func (px *segPostings) zone() segZone {
	var z segZone
	for fi, vals := range px.vals {
		z.min[fi], z.max[fi] = vals[0], vals[len(vals)-1]
		if len(vals) <= segZoneMaxVals {
			z.vals[fi] = vals
		}
	}
	for fl := range z.flags {
		z.flags[fl] = px.flags[fl+1] > px.flags[fl]
	}
	return z
}

// bytes is the resident footprint, for the cache budget.
func (px *segPostings) bytes() int64 {
	n := 4 * int64(cap(px.rows))
	for fi := range px.vals {
		n += 2*int64(cap(px.vals[fi])) + 4*int64(cap(px.start[fi]))
	}
	return n
}

// buildSegPostings indexes a non-empty row run under keyVal and keyFlags,
// exactly like postings.add does for a shard slab, keyed by row position
// instead of PacketID. Each family is one counting sort over its domain —
// no maps, no comparisons — which leaves every value's rows ascending.
func buildSegPostings(rows []StoredPacket) *segPostings {
	n := len(rows)
	vals := make([][numFams]uint16, n)
	flags := make([][numFlags]bool, n)
	for i := range rows {
		for kind := ixProto; kind < ixFlag; kind++ {
			vals[i][kind-1] = keyVal(&rows[i], kind)
		}
		flags[i] = keyFlags(&rows[i])
	}
	px := &segPostings{rows: make([]uint32, numFams*n, (numFams+numFlags)*n)}
	slots := make([]uint32, 1<<16) // per value: its row count, then its next free slab slot
	pos := uint32(0)
	for fi := range px.vals {
		next := slots[:valueKeys[fi].max+1]
		clear(next)
		for i := range vals {
			next[vals[i][fi]]++
		}
		for v, c := range next {
			if c != 0 {
				px.vals[fi] = append(px.vals[fi], uint16(v))
				px.start[fi] = append(px.start[fi], pos)
				next[v] = pos
				pos += c
			}
		}
		px.start[fi] = append(px.start[fi], pos)
		for i := range vals {
			v := vals[i][fi]
			px.rows[next[v]] = uint32(i)
			next[v]++
		}
	}
	for fl := 0; fl < numFlags; fl++ {
		px.flags[fl] = uint32(len(px.rows))
		for i := range flags {
			if flags[i][fl] {
				px.rows = append(px.rows, uint32(i))
			}
		}
	}
	px.flags[numFlags] = uint32(len(px.rows))
	return px
}

// appendRowList delta-codes one ascending row list.
func appendRowList(b []byte, rows []uint32) []byte {
	b = binary.AppendUvarint(b, uint64(len(rows)))
	for j, r := range rows {
		if j == 0 {
			b = binary.AppendUvarint(b, uint64(r))
		} else {
			b = binary.AppendUvarint(b, uint64(r-rows[j-1]))
		}
	}
	return b
}

// encode serializes the index column canonically: families in fixed
// order, values ascending, rows delta-coded.
func (px *segPostings) encode() []byte {
	b := make([]byte, 0, 2*len(px.rows))
	for fi, vals := range px.vals {
		b = binary.AppendUvarint(b, uint64(len(vals)))
		for i, v := range vals {
			b = binary.AppendUvarint(b, uint64(v))
			b = appendRowList(b, px.rows[px.start[fi][i]:px.start[fi][i+1]])
		}
	}
	for fl := 0; fl < numFlags; fl++ {
		b = appendRowList(b, px.rows[px.flags[fl]:px.flags[fl+1]])
	}
	return b
}

// putBits / getBits pack fixed-width codes LSB-first, matching the actor
// column's bit order.
func putBits(dst []byte, bitOff, width int, v uint64) {
	for w := 0; w < width; w++ {
		if v&(1<<w) != 0 {
			dst[(bitOff+w)/8] |= 1 << ((bitOff + w) % 8)
		}
	}
}

// getBits extracts one code from a single loaded little-endian word.
// Widths stay under 57 bits (a dictionary code is at most 22), so the
// code never straddles the word even at bit offset 7.
func getBits(src []byte, bitOff, width int) uint64 {
	i := bitOff >> 3
	var word uint64
	if i+8 <= len(src) {
		word = binary.LittleEndian.Uint64(src[i:])
	} else {
		for k, b := range src[i:] {
			word |= uint64(b) << (8 * k)
		}
	}
	return word >> (bitOff & 7) & (1<<width - 1)
}

// segDictFams are the two families a materialised row reads per row:
// links and labels.
var segDictFams = [2]ixKind{ixLink, ixLabel}

// segDict is the per-row view of the link and label families: per family,
// the value table, the code width and the bit-packed codes, one per row.
// at() is the O(1) per-row accessor.
type segDict struct {
	vals  [2][]uint16 // the family's ascending values, shared with the postings
	width [2]int
	codes [2][]byte
}

func (d *segDict) at(fam, row int) uint16 {
	if d.width[fam] == 0 {
		return d.vals[fam][0]
	}
	return d.vals[fam][getBits(d.codes[fam], row*d.width[fam], d.width[fam])]
}

// bytes is the resident footprint beyond the postings', for the cache
// budget.
func (d *segDict) bytes() int64 {
	return int64(cap(d.codes[0]) + cap(d.codes[1]))
}

// dict builds the per-row link and label codes from the postings of a
// segment of count rows: a row's code is the position of the value whose
// run it sits in. The families partition the rows (decodeIndex checks it),
// so every row gets exactly one code.
func (px *segPostings) dict(count int) *segDict {
	d := &segDict{}
	for fam, kind := range segDictFams {
		vals, start := px.vals[kind-1], px.start[kind-1]
		d.vals[fam] = vals
		if d.width[fam] = bits.Len(uint(len(vals) - 1)); d.width[fam] > 0 {
			width := d.width[fam]
			d.codes[fam] = make([]byte, (count*width+7)/8)
			for code := range vals {
				for _, row := range px.rows[start[code]:start[code+1]] {
					putBits(d.codes[fam], int(row)*width, width, uint64(code))
				}
			}
		}
	}
	return d
}

// deflateBlocks compresses the rows' packet bytes as independent
// segBlockRows-row DEFLATE streams (internal/deflate, one call per block
// over the block's rows copied into a per-worker buffer), returning each
// block's compressed length and stream CRC and the streams as a few
// buffers whose concatenation is block order. Contiguous block ranges fan out across
// workers (0 = GOMAXPROCS); a block's stream depends only on its bytes and
// lands at a position fixed by its index, so the bytes are the same at any
// worker count.
func deflateBlocks(rows []StoredPacket, workers int) (streams [][]byte, compLens []int, compSums []uint32) {
	nblocks := (len(rows) + segBlockRows - 1) / segBlockRows
	compLens, compSums = make([]int, nblocks), make([]uint32, nblocks)
	nparts := min(parallel.Workers(workers), nblocks)
	per := (nblocks + nparts - 1) / nparts
	streams = make([][]byte, nparts)
	parallel.For(nparts, nparts, func(p int) {
		// Sized once: raw for the range's largest block, buf for its
		// streams at 16:1 (it grows if they need more).
		rawMax, rawSum := 0, 0
		for b := p * per; b < min((p+1)*per, nblocks); b++ {
			n := 0
			for i := b * segBlockRows; i < min((b+1)*segBlockRows, len(rows)); i++ {
				n += len(rows[i].Data)
			}
			rawMax, rawSum = max(rawMax, n), rawSum+n
		}
		raw, buf := make([]byte, 0, rawMax), make([]byte, 0, rawSum/16+64)
		for b := p * per; b < min((p+1)*per, nblocks); b++ {
			raw = raw[:0]
			for i := b * segBlockRows; i < min((b+1)*segBlockRows, len(rows)); i++ {
				raw = append(raw, rows[i].Data...)
			}
			start := len(buf)
			buf = deflate.Append(buf, raw)
			compLens[b], compSums[b] = len(buf)-start, frame.Sum(buf[start:])
		}
		streams[p] = buf
	})
	return streams, compLens, compSums
}

// encodeSegment serializes one dense run — consecutive IDs, TS never
// stepping back — into a CLSG blob, returning the blob and the resident
// metadata. The encoding is canonical: the same rows always produce the
// same bytes. A run with an ID gap, a repeated ID or a step back in time
// is refused: it breaks the store's one ingest order, and the segment
// could not hold it.
func encodeSegment(rows []StoredPacket) ([]byte, segMeta, error) { return encodeSegmentOn(rows, 0) }

// encodeSegmentOn is encodeSegment on deflateBlocks' workers.
func encodeSegmentOn(rows []StoredPacket, workers int) ([]byte, segMeta, error) {
	var meta segMeta
	n := len(rows)
	if n == 0 {
		return nil, meta, segErr("empty row run")
	}
	if n > segMaxCount {
		return nil, meta, segErr("%d rows exceeds cap", n)
	}
	var totalRaw uint64
	for i := range rows {
		if i > 0 {
			prev, cur := &rows[i-1], &rows[i]
			if cur.ID != prev.ID+1 || cur.ID < prev.ID {
				return nil, meta, segErr("row %d: ID %d does not follow %d", i, cur.ID, prev.ID)
			}
			if cur.TS < prev.TS {
				return nil, meta, segErr("row %d: TS steps back", i)
			}
		}
		if len(rows[i].Data) > segMaxPacket {
			return nil, meta, segErr("row %d data %d bytes exceeds cap", i, len(rows[i].Data))
		}
		totalRaw += uint64(len(rows[i].Data))
	}
	if totalRaw > segMaxData {
		return nil, meta, segErr("data column %d bytes exceeds cap", totalRaw)
	}
	meta.count = n
	meta.minID, meta.maxID = rows[0].ID, rows[n-1].ID
	meta.minTS, meta.maxTS = rows[0].TS, rows[n-1].TS

	tsc := binary.AppendUvarint(nil, zigzag(int64(rows[0].TS)))
	for i := 1; i < n; i++ {
		tsc = binary.AppendUvarint(tsc, uint64(rows[i].TS-rows[i-1].TS))
	}
	act := make([]byte, (n+7)/8)
	for i := range rows {
		if rows[i].Actor {
			act[i/8] |= 1 << (i % 8)
		}
	}
	streams, compLens, compSums := deflateBlocks(rows, workers)
	// Sized once: three header uvarints, a length per row and per block
	// (at most 5 bytes each), a CRC per block, then the streams.
	size := 3*binary.MaxVarintLen64 + 5*n + 9*len(compLens)
	for _, st := range streams {
		size += len(st)
	}
	data := binary.AppendUvarint(make([]byte, 0, size), segBlockRows)
	data = binary.AppendUvarint(data, uint64(len(compLens)))
	data = binary.AppendUvarint(data, totalRaw)
	for i := range rows {
		data = binary.AppendUvarint(data, uint64(len(rows[i].Data)))
	}
	for _, cl := range compLens {
		data = binary.AppendUvarint(data, uint64(cl))
	}
	for _, sum := range compSums {
		data = binary.LittleEndian.AppendUint32(data, sum)
	}
	for _, st := range streams {
		data = append(data, st...)
	}
	sums, err := encodeSummaries(rows)
	if err != nil {
		return nil, meta, err
	}

	px := buildSegPostings(rows)
	meta.zone = px.zone()
	ixb := px.encode()

	out := make([]byte, 0, segHeaderSize+len(tsc)+len(act)+len(data)+len(ixb)+len(sums)+segNumCols*9)
	out = append(out, segMagic...)
	out = binary.LittleEndian.AppendUint16(out, segVersion)
	out = binary.LittleEndian.AppendUint16(out, 0)
	out = binary.LittleEndian.AppendUint32(out, uint32(n))
	out = binary.LittleEndian.AppendUint64(out, uint64(meta.minID))
	out = binary.LittleEndian.AppendUint64(out, uint64(meta.maxID))
	out = binary.LittleEndian.AppendUint64(out, uint64(meta.minTS))
	out = binary.LittleEndian.AppendUint64(out, uint64(meta.maxTS))
	out = binary.LittleEndian.AppendUint32(out, frame.Sum(out[:44]))
	// Each column is its id byte, then the payload as a checked block.
	out = frame.AppendBlock(append(out, segColTS), tsc)
	out = frame.AppendBlock(append(out, segColActor), act)
	out = frame.AppendBlock(append(out, segColData), data)
	out = frame.AppendBlock(append(out, segColIndex), ixb)
	out = frame.AppendBlock(append(out, segColSummary), sums)
	return out, meta, nil
}

// segBlob is a parsed segment: header fields plus the framed column
// payloads. Framing (magic, version, column order, lengths, no trailing
// bytes) is validated eagerly; per-column CRCs verify on first access and
// are memoized, so a cursor that opens the file only for data blocks pays
// only the data column's checksum. A segBlob is not safe for concurrent
// use — each reader parses its own.
type segBlob struct {
	count        int
	minID, maxID PacketID
	minTS, maxTS time.Duration
	cols         [segNumCols + 1][]byte
	colSums      [segNumCols + 1]uint32
	colOK        [segNumCols + 1]bool
}

// col returns one column payload, verifying its CRC on first access.
func (sb *segBlob) col(id int) ([]byte, error) {
	if !sb.colOK[id] {
		if err := frame.Check(sb.cols[id], sb.colSums[id]); err != nil {
			return nil, segErr("column %d: %v", id, err)
		}
		sb.colOK[id] = true
	}
	return sb.cols[id], nil
}

// verifyAll checks every column CRC (attach time).
func (sb *segBlob) verifyAll() error {
	for id := segColTS; id <= segNumCols; id++ {
		if _, err := sb.col(id); err != nil {
			return err
		}
	}
	return nil
}

// parseSegment validates the header and the column framing (magic,
// version, counts, column order and lengths, no trailing bytes) without
// decoding or checksumming any column payload.
func parseSegment(b []byte) (*segBlob, error) {
	if len(b) < segHeaderSize {
		return nil, segErr("short header (%d bytes)", len(b))
	}
	if string(b[:4]) != segMagic {
		return nil, segErr("bad magic %q", b[:4])
	}
	if v := binary.LittleEndian.Uint16(b[4:6]); v != segVersion {
		return nil, segErr("unsupported version %d", v)
	}
	if binary.LittleEndian.Uint16(b[6:8]) != 0 {
		return nil, segErr("nonzero reserved field")
	}
	if err := frame.Check(b[:44], binary.LittleEndian.Uint32(b[44:48])); err != nil {
		return nil, segErr("header: %v", err)
	}
	sb := &segBlob{
		count: int(binary.LittleEndian.Uint32(b[8:12])),
		minID: PacketID(binary.LittleEndian.Uint64(b[12:20])),
		maxID: PacketID(binary.LittleEndian.Uint64(b[20:28])),
		minTS: time.Duration(binary.LittleEndian.Uint64(b[28:36])),
		maxTS: time.Duration(binary.LittleEndian.Uint64(b[36:44])),
	}
	if sb.count <= 0 || sb.count > segMaxCount {
		return nil, segErr("row count %d out of range", sb.count)
	}
	// The run is [minID, minID+count): the end must be representable and
	// maxID the run's last ID.
	if uint64(sb.minID) > math.MaxUint64-uint64(sb.count) || sb.maxID != sb.minID+PacketID(sb.count-1) {
		return nil, segErr("ID bounds [%d,%d] are not a run of %d", sb.minID, sb.maxID, sb.count)
	}
	rest := b[segHeaderSize:]
	for want := byte(segColTS); want <= segNumCols; want++ {
		if len(rest) == 0 {
			return nil, segErr("truncated at column %d frame", want)
		}
		if rest[0] != want {
			return nil, segErr("column %d out of order (got id %d)", want, rest[0])
		}
		// A column is bounded by its file: no cap beyond the bytes present.
		var err error
		if sb.cols[want], sb.colSums[want], rest, err = frame.Next(rest[1:], len(b)); err != nil {
			return nil, segErr("column %d: %v", want, err)
		}
	}
	if len(rest) != 0 {
		return nil, segErr("%d trailing bytes", len(rest))
	}
	return sb, nil
}

// segReader walks one column payload's varints with bounds checking.
type segReader struct {
	b   []byte
	off int
}

func (r *segReader) uvarint() (uint64, error) {
	if r.off < len(r.b) && r.b[r.off] < 0x80 { // one-byte fast path: most deltas
		r.off++
		return uint64(r.b[r.off-1]), nil
	}
	v, n := binary.Uvarint(r.b[r.off:])
	if n <= 0 {
		return 0, segErr("bad varint at offset %d", r.off)
	}
	r.off += n
	return v, nil
}

func (r *segReader) done() bool { return r.off == len(r.b) }

// decodeTS decodes and validates the TS column: non-decreasing, with the
// header's bounds at either end.
func (sb *segBlob) decodeTS() ([]time.Duration, error) {
	tsCol, err := sb.col(segColTS)
	if err != nil {
		return nil, err
	}
	r := &segReader{b: tsCol}
	tss := make([]time.Duration, sb.count)
	v, err := r.uvarint()
	if err != nil {
		return nil, err
	}
	tss[0] = time.Duration(unzigzag(v))
	for i := 1; i < sb.count; i++ {
		if v, err = r.uvarint(); err != nil {
			return nil, err
		}
		if tss[i] = tss[i-1] + time.Duration(v); tss[i] < tss[i-1] {
			return nil, segErr("TS steps back at row %d", i)
		}
	}
	if !r.done() {
		return nil, segErr("trailing bytes in ts column")
	}
	if tss[0] != sb.minTS || tss[sb.count-1] != sb.maxTS {
		return nil, segErr("TS bounds disagree with header")
	}
	return tss, nil
}

// decodeActor validates the bit-packed actor column and returns a private
// copy of it.
func (sb *segBlob) decodeActor() ([]byte, error) {
	act, err := sb.col(segColActor)
	if err != nil {
		return nil, err
	}
	if len(act) != (sb.count+7)/8 {
		return nil, segErr("actor column %d bytes, want %d", len(act), (sb.count+7)/8)
	}
	if rem := sb.count % 8; rem != 0 && act[len(act)-1]>>rem != 0 {
		return nil, segErr("nonzero trailing actor bits")
	}
	return bytes.Clone(act), nil
}

// segData is a parsed (not yet inflated) data column: the per-row raw
// offsets and the block geometry. Everything but streams is private
// memory, so a segData with streams dropped is the resident geometry a
// directory keeps.
type segData struct {
	count     int
	blockRows int
	nblocks   int
	rowOff    []uint32 // len count+1: prefix sums of per-row raw lengths (segMaxData is 2^30)
	compOff   []int    // per block: offset of its DEFLATE stream in streams
	compLen   []int
	compSum   []uint32 // per block: its stream's CRC, checked before it inflates
	// streams is the concatenated block streams, payload[streamsOff:] of
	// the data column. It aliases the blob, so a resident directory drops
	// it and a cursor re-derives it from the file it opens.
	streamsOff int
	streams    []byte
}

// parseData validates the data column's framing: row lengths vs the
// declared total, block geometry, and per-block compressed extents that
// exactly cover the remaining payload.
func (sb *segBlob) parseData() (*segData, error) {
	payload, err := sb.col(segColData)
	if err != nil {
		return nil, err
	}
	r := &segReader{b: payload}
	d := &segData{count: sb.count}
	br, err := r.uvarint()
	if err != nil {
		return nil, err
	}
	if br == 0 || br > segMaxCount {
		return nil, segErr("data block rows %d out of range", br)
	}
	nb, err := r.uvarint()
	if err != nil {
		return nil, err
	}
	d.blockRows = int(br)
	d.nblocks = int(nb)
	if want := (sb.count + d.blockRows - 1) / d.blockRows; d.nblocks != want {
		return nil, segErr("data column claims %d blocks, geometry needs %d", d.nblocks, want)
	}
	totalRaw, err := r.uvarint()
	if err != nil {
		return nil, err
	}
	if totalRaw > segMaxData {
		return nil, segErr("data column claims %d bytes", totalRaw)
	}
	d.rowOff = make([]uint32, sb.count+1)
	var off uint64
	for i := 0; i < sb.count; i++ {
		l, err := r.uvarint()
		if err != nil {
			return nil, err
		}
		if l > segMaxPacket {
			return nil, segErr("row %d claims %d data bytes", i, l)
		}
		if off += l; off > totalRaw {
			return nil, segErr("row lengths pass the declared total %d at row %d", totalRaw, i)
		}
		d.rowOff[i+1] = uint32(off)
	}
	if off != totalRaw {
		return nil, segErr("row lengths sum %d != total %d", off, totalRaw)
	}
	d.compOff = make([]int, d.nblocks)
	d.compLen = make([]int, d.nblocks)
	var sum uint64
	for b := 0; b < d.nblocks; b++ {
		cl, err := r.uvarint()
		if err != nil {
			return nil, err
		}
		sum += cl
		d.compLen[b] = int(cl)
	}
	crcs, err := r.fixed(4 * d.nblocks)
	if err != nil {
		return nil, err
	}
	if sum != uint64(len(payload)-r.off) {
		return nil, segErr("block streams claim %d bytes, %d remain", sum, len(payload)-r.off)
	}
	d.compSum = make([]uint32, d.nblocks)
	streamOff := 0
	for b := 0; b < d.nblocks; b++ {
		d.compOff[b] = streamOff
		streamOff += d.compLen[b]
		d.compSum[b] = binary.LittleEndian.Uint32(crcs[4*b:])
	}
	d.streamsOff = r.off
	d.streams = payload[r.off:]
	return d, nil
}

// bytes is the resident footprint of the geometry, for the cache budget.
func (d *segData) bytes() int64 {
	return 4*int64(cap(d.rowOff)+cap(d.compSum)) + 8*int64(cap(d.compOff)+cap(d.compLen))
}

// blockRange returns block b's row interval [lo, hi).
func (d *segData) blockRange(b int) (int, int) {
	lo := b * d.blockRows
	hi := lo + d.blockRows
	if hi > d.count {
		hi = d.count
	}
	return lo, hi
}

// inflateBlock checks block b's stream against its CRC and decompresses
// it straight into an exact-size buffer, which the block cache then keeps:
// the one-shot decoder (internal/inflate) copies back-references within
// that buffer and builds its tables in pooled scratch, so the buffer is
// the only allocation. It refuses a stream that decodes to more or fewer
// bytes than the directory records, a truncated stream, and a bad
// header, tree or distance.
func (d *segData) inflateBlock(streams []byte, b int) ([]byte, error) {
	src := streams[d.compOff[b] : d.compOff[b]+d.compLen[b]]
	if err := frame.Check(src, d.compSum[b]); err != nil {
		return nil, segErr("block %d: %v", b, err)
	}
	lo, hi := d.blockRange(b)
	buf := make([]byte, d.rowOff[hi]-d.rowOff[lo])
	if err := inflate.Into(buf, src); err != nil {
		return nil, segErr("inflate block %d: %v", b, err)
	}
	return buf, nil
}

// rowBytes slices one row's raw bytes out of its inflated block.
func (d *segData) rowBytes(blockBuf []byte, b, row int) []byte {
	base := d.rowOff[b*d.blockRows]
	lo, hi := d.rowOff[row]-base, d.rowOff[row+1]-base
	return blockBuf[lo:hi:hi]
}

// readRowList decodes one delta-coded row list onto the end of dst,
// validating strict ascent and the row-position domain.
func readRowList(r *segReader, count int, dst []uint32) ([]uint32, error) {
	n, err := r.uvarint()
	if err != nil {
		return nil, err
	}
	if n > uint64(count) {
		return nil, segErr("row list claims %d of %d rows", n, count)
	}
	if n == 0 {
		return dst, nil
	}
	v, err := r.uvarint()
	if err != nil {
		return nil, err
	}
	if v >= uint64(count) {
		return nil, segErr("row %d out of range", v)
	}
	dst = append(dst, uint32(v))
	for j := 1; j < int(n); j++ {
		d, err := r.uvarint()
		if err != nil {
			return nil, err
		}
		if d == 0 {
			return nil, segErr("row list not strictly ascending")
		}
		if d >= uint64(count) { // also keeps v += d from wrapping
			return nil, segErr("row delta %d out of range", d)
		}
		if v += d; v >= uint64(count) {
			return nil, segErr("row %d out of range", v)
		}
		dst = append(dst, uint32(v))
	}
	return dst, nil
}

// decodeIndex decodes and validates the index column: ascending in-domain
// values, strictly ascending row lists, and — for the five value families
// — an exact partition of the rows (which is what makes the zone map's
// absence proofs sound).
func (sb *segBlob) decodeIndex() (*segPostings, error) {
	payload, err := sb.col(segColIndex)
	if err != nil {
		return nil, err
	}
	r := &segReader{b: payload}
	// Every row entry costs at least one payload byte, which bounds the
	// slab tighter than the 11 lists a row can appear in.
	px := &segPostings{rows: make([]uint32, 0, min(len(payload), (numFams+numFlags)*sb.count))}
	seen := make([]uint64, (sb.count+63)/64) // one bitset, cleared per family
	for fi := range px.vals {
		nvals, err := r.uvarint()
		if err != nil {
			return nil, err
		}
		if nvals > uint64(sb.count) {
			return nil, segErr("family %d claims %d values", fi, nvals)
		}
		clear(seen)
		vals := make([]uint16, 0, nvals)
		start := make([]uint32, 0, nvals+1)
		base := len(px.rows)
		prev := uint64(0)
		for vi := uint64(0); vi < nvals; vi++ {
			val, err := r.uvarint()
			if err != nil {
				return nil, err
			}
			if vi > 0 && val <= prev {
				return nil, segErr("family %d values not ascending", fi)
			}
			prev = val
			if val > valueKeys[fi].max {
				return nil, segErr("family %d value %d out of domain", fi, val)
			}
			lo := len(px.rows)
			if px.rows, err = readRowList(r, sb.count, px.rows); err != nil {
				return nil, err
			}
			if len(px.rows) == lo {
				return nil, segErr("family %d value %d has no rows", fi, val)
			}
			for _, row := range px.rows[lo:] {
				if seen[row>>6]&(1<<(row&63)) != 0 {
					return nil, segErr("family %d row %d indexed twice", fi, row)
				}
				seen[row>>6] |= 1 << (row & 63)
			}
			vals = append(vals, uint16(val))
			start = append(start, uint32(lo))
		}
		if total := len(px.rows) - base; total != sb.count {
			return nil, segErr("family %d covers %d of %d rows", fi, total, sb.count)
		}
		px.vals[fi], px.start[fi] = vals, append(start, uint32(len(px.rows)))
	}
	for fl := 0; fl < numFlags; fl++ {
		px.flags[fl] = uint32(len(px.rows))
		if px.rows, err = readRowList(r, sb.count, px.rows); err != nil {
			return nil, err
		}
	}
	px.flags[numFlags] = uint32(len(px.rows))
	if !r.done() {
		return nil, segErr("trailing bytes in index column")
	}
	if spare := cap(px.rows) - len(px.rows); spare > len(px.rows)/8 {
		px.rows = append(make([]uint32, 0, len(px.rows)), px.rows...) // resident: don't hold the slack
	}
	return px, nil
}

// decodeBlobRows fully decodes a parsed blob back into its row run.
func (sb *segBlob) decodeBlobRows() ([]StoredPacket, error) {
	cur, err := blobCursor(sb)
	if err != nil {
		return nil, err
	}
	defer cur.close()
	return cur.rows(0, sb.count)
}

// decodeSegmentRows fully decodes a segment blob back into its row run —
// the fuzz target's identity check: decode(encode(rows)) == rows for every
// valid blob.
func decodeSegmentRows(b []byte) ([]StoredPacket, error) {
	sb, err := parseSegment(b)
	if err != nil {
		return nil, err
	}
	return sb.decodeBlobRows()
}

// openSegMeta parses a segment blob just enough to register it: header
// bounds plus the zone map derived from the index column. Every column
// CRC is verified here — attach is the one moment strictness is cheap —
// but the TS/data columns stay undecoded.
func openSegMeta(b []byte) (segMeta, error) {
	var m segMeta
	sb, err := parseSegment(b)
	if err != nil {
		return m, err
	}
	if err := sb.verifyAll(); err != nil {
		return m, err
	}
	ix, err := sb.decodeIndex()
	if err != nil {
		return m, err
	}
	m.count = sb.count
	m.minID, m.maxID = sb.minID, sb.maxID
	m.minTS, m.maxTS = sb.minTS, sb.maxTS
	m.zone = ix.zone()
	return m, nil
}
