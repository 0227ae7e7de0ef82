package datastore

import (
	"math"
	"time"

	"campuslab/internal/packet"
	"campuslab/internal/traffic"
)

// The segment directory: everything about a cold segment that is not
// packet bytes or summaries — its first ID, timestamps, posting families,
// the per-row link/label codes, actor bits, and the block and stripe geometry of
// the data and summary columns — decoded and validated once, copied off
// the file mapping, and then shared by every query that touches the
// segment. A directory is immutable and describes an immutable file named
// by a never-reused seq, so it can never go stale; the tier cache holds it
// under the same byte budget as the decoded blocks and stripes
// (tiercache.go), and with the cache off the same build runs per query, so
// there is one read path, not two.
//
// What is verified when. buildSegDir checksums all of the segment's
// columns and runs every structural check the column decoders make, so a
// directory only exists for a segment that was whole when it was built.
// Queries answered from a resident directory alone (windowed indexable
// Counts, candidate lists) read no file at all. A cursor serves summary
// stripes and data blocks from the cache, and on its first miss opens
// the file and re-frames it; each stripe or block stream it then reads is
// checked against its own CRC before it inflates, and each inflated
// stream for its exact size and a clean end.
type segDir struct {
	minID PacketID // row i holds ID minID+i
	tss   []time.Duration
	act   []byte // one bit per row
	post  *segPostings
	dict  *segDict
	data  *segData // geometry only: streams is nil
	sums  *segSums
	// The data and summary columns this geometry was parsed from; a cursor
	// opening the file later refuses one that frames different columns.
	dataCol, sumCol colStamp
	// bytes is the resident footprint charged to the cache budget.
	bytes int64
}

// colStamp identifies a column payload by its length and stored CRC.
type colStamp struct {
	n   int
	sum uint32
}

func stampOf(sb *segBlob, id int) colStamp { return colStamp{len(sb.cols[id]), sb.colSums[id]} }

// buildSegDir decodes and validates every column of a parsed segment into
// its directory. Nothing in the result aliases the blob.
func buildSegDir(sb *segBlob) (*segDir, error) {
	tss, err := sb.decodeTS()
	if err != nil {
		return nil, err
	}
	post, err := sb.decodeIndex()
	if err != nil {
		return nil, err
	}
	act, err := sb.decodeActor()
	if err != nil {
		return nil, err
	}
	data, err := sb.parseData()
	if err != nil {
		return nil, err
	}
	sums, err := sb.parseSums()
	if err != nil {
		return nil, err
	}
	d := &segDir{
		minID: sb.minID, tss: tss, act: act, post: post, dict: post.dict(sb.count), data: data, sums: sums,
		dataCol: stampOf(sb, segColData), sumCol: stampOf(sb, segColSummary),
	}
	data.streams = nil
	d.bytes = 256 + 8*int64(sb.count) + int64(len(act)) + post.bytes() + d.dict.bytes() + data.bytes() + sums.bytes()
	return d, nil
}

// segCursor materialises rows of one segment, one at a time, for one
// query: metadata from the directory, summaries from decoded stripes and
// packet bytes from decoded blocks — both through the tier cache or,
// from the first miss on, the segment file. A cursor is not safe for
// concurrent use and must be closed.
type segCursor struct {
	dir *segDir
	qs  *queryStats // nil outside queries (compaction, blob decodes)

	// cache serves and keeps decoded blocks and stripes under seq (nil:
	// decode and discard).
	cache *tierCache
	seq   uint64
	// The segment file: opened by the directory build when this query ran
	// it, otherwise on the first cache miss.
	tr      *tier
	sg      *tierSegment
	sb      *segBlob
	release func()
	// The block and stripe streams of the file's data and summary columns.
	streams, sumStreams []byte

	stripe int              // index of the stripe in sums
	sums   []packet.Summary // nil before the first
	block  int              // index of the block in buf, -1 before the first
	buf    []byte
	sp     StoredPacket // the row at hands out

	blocksInflated, bytesInflated, rowsDecoded uint64
}

// openSeg returns a cursor over sg. With useCache the directory comes
// from (or is built into) the tier cache and blocks and stripes are cached
// beside it; without — compaction, which reads each input once and
// deletes it — the cache is neither read nor filled. Either way a
// directory that has to be built is built by the same code from the same
// single file read. Caller holds tr.mu.RLock (registry membership) or
// sealMu (mutators).
func (tr *tier) openSeg(sg *tierSegment, useCache bool, qs *queryStats) (*segCursor, error) {
	c := &segCursor{tr: tr, sg: sg, qs: qs, block: -1}
	if useCache && tr.cache != nil {
		c.cache, c.seq = tr.cache, sg.seq
		if dir, ok := tr.cache.getDir(sg.seq); ok {
			c.dir = dir
			return c, nil
		}
	}
	sb, release, err := tr.loadSeg(sg)
	if err != nil {
		return nil, err
	}
	dir, err := buildSegDir(sb)
	if err != nil {
		release()
		return nil, err // nothing cached
	}
	c.sb, c.release, c.dir = sb, release, dir
	if c.cache != nil {
		c.dir = c.cache.putDir(sg.seq, dir)
	}
	return c, nil
}

// blobCursor is a cache-less cursor over a parsed blob: the full-decode
// path.
func blobCursor(sb *segBlob) (*segCursor, error) {
	dir, err := buildSegDir(sb)
	if err != nil {
		return nil, err
	}
	return &segCursor{dir: dir, sb: sb, block: -1}, nil
}

// close releases the file and hands the cursor's counters to the query.
func (c *segCursor) close() {
	if c.release != nil {
		c.release()
	}
	if c.qs != nil {
		c.qs.blocksInflated.Add(c.blocksInflated)
		c.qs.bytesInflated.Add(c.bytesInflated)
		c.qs.rowsDecoded.Add(c.rowsDecoded)
	}
}

// openStreams locates the data and summary columns' streams in the file,
// opening it if the directory came from the cache. No column CRC is
// recomputed here: the directory's build verified the geometry it holds,
// the file must frame the very columns it was built from, and every
// stream is checked against its own CRC when it is read.
func (c *segCursor) openStreams() error {
	if c.sb == nil {
		sb, release, err := c.tr.loadSeg(c.sg)
		if err != nil {
			return err
		}
		c.sb, c.release = sb, release
	}
	for _, col := range [...]struct {
		id   int
		want colStamp
	}{{segColData, c.dir.dataCol}, {segColSummary, c.dir.sumCol}} {
		if got := stampOf(c.sb, col.id); got != col.want {
			return segErr("column %d (%d bytes, crc %08x) is not the one its directory describes (%d bytes, crc %08x)",
				col.id, got.n, got.sum, col.want.n, col.want.sum)
		}
	}
	c.streams = c.sb.cols[segColData][c.dir.data.streamsOff:]
	c.sumStreams = c.sb.cols[segColSummary][c.dir.sums.streamsOff:]
	return nil
}

// loadBlock makes block b current, through the cache when there is one.
func (c *segCursor) loadBlock(b int) error {
	key := blockKey{seq: c.seq, block: b}
	if c.cache != nil {
		if buf, ok := c.cache.get(key); ok {
			c.buf, c.block = buf, b
			return nil
		}
	}
	if c.streams == nil {
		if err := c.openStreams(); err != nil {
			return err
		}
	}
	buf, err := c.dir.data.inflateBlock(c.streams, b)
	if err != nil {
		return err
	}
	c.blocksInflated++
	c.bytesInflated += uint64(len(buf))
	if c.cache != nil {
		c.cache.put(key, buf)
	}
	c.buf, c.block = buf, b
	return nil
}

// loadStripe makes summary stripe st current, through the cache when
// there is one.
func (c *segCursor) loadStripe(st int) error {
	key := stripeKey(c.seq, st)
	if c.cache != nil {
		if sums, ok := c.cache.getStripe(key); ok {
			c.sums, c.stripe = sums, st
			return nil
		}
	}
	if c.sumStreams == nil {
		if err := c.openStreams(); err != nil {
			return err
		}
	}
	sums, err := c.dir.sums.decodeStripe(c.sumStreams, st, c.dir.data)
	if err != nil {
		return err
	}
	if c.cache != nil {
		c.cache.putStripe(key, sums)
	}
	c.sums, c.stripe = sums, st
	return nil
}

// header materialises every field of one row but its frame bytes, from
// the directory and the row's summary stripe: no block inflates and no
// frame is parsed. sp.Data is left nil.
func (c *segCursor) header(row int, sp *StoredPacket) error {
	d := c.dir
	if st := row / d.sums.stripeRows; st != c.stripe || c.sums == nil {
		if err := c.loadStripe(st); err != nil {
			return err
		}
	}
	sp.ID, sp.TS = d.minID+PacketID(row), d.tss[row]
	sp.Link = d.dict.at(0, row)
	sp.Label = traffic.Label(d.dict.at(1, row))
	sp.Actor = d.act[row/8]&(1<<(row%8)) != 0
	sp.Summary = c.sums[row-c.stripe*d.sums.stripeRows]
	sp.Data = nil
	c.rowsDecoded++
	return nil
}

// frame fills in sp.Data, the frame bytes of row, from its inflated block.
// sp.Data aliases the decoded block, never the file mapping, so it
// outlives the cursor.
func (c *segCursor) frame(row int, sp *StoredPacket) error {
	d := c.dir
	if b := row / d.data.blockRows; b != c.block {
		if err := c.loadBlock(b); err != nil {
			return err
		}
	}
	sp.Data = d.data.rowBytes(c.buf, c.block, row)
	return nil
}

// row materialises one whole row into sp.
func (c *segCursor) row(row int, sp *StoredPacket) error {
	if err := c.header(row, sp); err != nil {
		return err
	}
	return c.frame(row, sp)
}

// rows materialises the row interval [lo, hi) into a fresh run.
func (c *segCursor) rows(lo, hi int) ([]StoredPacket, error) {
	if lo >= hi {
		return nil, nil
	}
	out := make([]StoredPacket, hi-lo)
	for i := range out {
		if err := c.row(lo+i, &out[i]); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// A cursor is the cold run: positions are row numbers.

func (c *segCursor) span(w tsWin) (lo, hi int) {
	return w.span(len(c.dir.tss), func(i int) time.Duration { return c.dir.tss[i] })
}

// candidates intersects the directory's row lists clipped to [lo, hi).
// Unlike a shard, a segment never declines an indexable plan — "walk
// instead" would mean inflating the whole data column, which the candidate
// walk avoids, and the zone map has already proven the segment can match.
// The result may be a view into the directory's immutable posting slab.
func (c *segCursor) candidates(p *queryPlan, lo, hi int) ([]uint32, bool) {
	return indexCandidates(p, c.dir.post.lookup, uint32(lo), uint32(hi), math.MaxInt)
}

// at materialises row pos, all but its frame, into the cursor's one
// scratch packet.
func (c *segCursor) at(pos int) (*StoredPacket, error) {
	return &c.sp, c.header(pos, &c.sp)
}

// find is arithmetic: row i holds ID minID+i.
func (c *segCursor) find(id PacketID) (int, bool) {
	if id < c.dir.minID || id-c.dir.minID >= PacketID(len(c.dir.tss)) {
		return -1, false
	}
	return int(id - c.dir.minID), true
}
