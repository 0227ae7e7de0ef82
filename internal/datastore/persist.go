package datastore

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net/netip"
	"os"
	"sort"
	"time"

	"campuslab/internal/eventlog"
	"campuslab/internal/faults"
	"campuslab/internal/frame"
	"campuslab/internal/packet"
	"campuslab/internal/traffic"
)

// A snapshot is a six-byte preamble and a sequence of frame checked blocks
// (all integers little-endian), one layout for every store:
//
//	preamble: magic "CLDS" | version u16 (4)
//	header:   one block: packet count u64 | event count u64 |
//	          flow count u64 | base ID u64 | last TS i64
//	packets:  record-list blocks (frame.AppendRecords, the WAL record's
//	          payload) in (TS, ID) order, each at most loadChunk bytes or
//	          one larger record alone: one addBatch on load
//	events:   ts i64 | source u8 | severity u8 | hostLen u16 | host |
//	          msgLen u32 | msg, per event
//	flows:    per flow, in Flows() order: key, totals, packet IDs
//
// Events and flows are byte streams cut into loadChunk-byte blocks, the
// last holding the rest (so a flow of any length fits); the header's
// counts end each section.
//
// The base ID, the flows and the TS watermark are what the hot rows alone
// cannot rebuild. Load seeds the ID sequence at the base ID, so re-ingest
// reassigns the original IDs: the WAL and cold segments name packets by
// ID, and eviction or a seal may have taken a prefix of them away. It then
// overlays the persisted flows, whose totals and ID lists still count rows
// that are no longer hot. Indexes are derived data and are rebuilt.
//
// The layout is canonical: Load refuses what Save would not have written
// (a block cut elsewhere, rows, events or flows out of order, a hot packet
// whose flow is missing, trailing bytes), so a snapshot that loads re-saves
// to its own bytes. Versions 1 to 3 are refused, not migrated.

const (
	persistMagic   = "CLDS"
	persistVersion = 4
	// loadChunk is a snapshot block's byte budget.
	loadChunk = 256 << 10
	// snapBlockMax bounds a block on read: a full chunk, or one record of
	// the largest size alone.
	snapBlockMax = 4 + frame.RecordHeaderSize + frame.MaxRecordData
	// snapHeaderSize is the header block's payload.
	snapHeaderSize = 5 * 8
	// flowFixed is a persisted flow's size before its ID list.
	flowFixed = 1 + 2*17 + 2*2 + 5*8 + 3 + 4*4
)

// ErrBadSnapshot reports a corrupt or incompatible snapshot stream.
var ErrBadSnapshot = errors.New("datastore: bad snapshot")

// setFaultInjector points the write/sync/rename steps of every file the
// store publishes — snapshots, cold segments and the tier manifest — at a
// fault injector (nil restores always-healthy), so crash-safety tests can
// kill a save, a seal or a compaction midway. Set it while the store is
// quiescent.
func (s *Store) setFaultInjector(inj faults.Injector) {
	s.persistFaults = inj
	if tr := s.tier.Load(); tr != nil {
		tr.faults = inj
	}
}

// Save writes the store's packets, events and flows to w. Packets stream
// out in global (timestamp, ID) order — the serial ingest order — and
// flows in listing order, so snapshots are byte-identical at any shard
// count. The store remains usable; concurrent ingest during Save is
// blocked by the shard locks.
func (s *Store) Save(w io.Writer) error {
	unlock := s.rlockAll()
	defer unlock()
	s.eventsMu.RLock()
	defer s.eventsMu.RUnlock()
	// The base ID is the smallest hot ID, or nextID when nothing is hot:
	// a slab is ID-ordered and the hot IDs run contiguously up to nextID.
	baseID := s.nextID.Load()
	nPackets := 0
	slabs := make([][]StoredPacket, len(s.shards))
	var flows []*FlowMeta
	for i, sh := range s.shards {
		slabs[i] = sh.packets
		nPackets += len(sh.packets)
		if len(sh.packets) > 0 {
			baseID = min(baseID, uint64(sh.packets[0].ID))
		}
		for _, fm := range sh.flows {
			flows = append(flows, fm)
		}
	}
	sort.Slice(flows, func(i, j int) bool { return flowBefore(flows[i], flows[j]) })

	sw := &snapWriter{w: w, buf: make([]byte, frame.BlockHeaderSize, frame.BlockHeaderSize+2*loadChunk)}
	_, sw.err = w.Write(binary.LittleEndian.AppendUint16([]byte(persistMagic), persistVersion))
	for _, v := range []uint64{uint64(nPackets), uint64(len(s.events)), uint64(len(flows)), baseID, uint64(s.lastTS.Load())} {
		sw.buf = binary.LittleEndian.AppendUint64(sw.buf, v)
	}
	sw.flush()

	frames, links, size := []traffic.Frame(nil), []uint16(nil), frame.RecordsSize(nil)
	cur := newMergeCursor(slabs)
	for sp := cur.next(); ; sp = cur.next() {
		if len(frames) > 0 && (sp == nil || size+frame.RecordHeaderSize+len(sp.Data) > loadChunk) {
			sw.buf = frame.AppendRecords(sw.buf, frames, links)
			sw.flush()
			frames, links, size = frames[:0], links[:0], frame.RecordsSize(nil)
		}
		if sp == nil {
			break
		}
		frames = append(frames, traffic.Frame{TS: sp.TS, Data: sp.Data, Label: sp.Label, Actor: sp.Actor})
		links = append(links, sp.Link)
		size += frame.RecordHeaderSize + len(sp.Data)
	}

	for i := range s.events {
		sw.buf = appendEvent(sw.buf, &s.events[i])
		sw.cut(false)
	}
	sw.cut(true)
	for _, fm := range flows {
		sw.buf = appendFlow(sw.buf, fm)
		sw.cut(false)
	}
	sw.cut(true)
	return sw.err
}

// snapWriter builds a snapshot's blocks in one buffer whose first
// frame.BlockHeaderSize bytes are room for the header of the block being
// built; the first write error sticks.
type snapWriter struct {
	w   io.Writer
	buf []byte
	err error
}

// flush writes the pending payload as one block.
func (sw *snapWriter) flush() {
	sw.write(sw.buf)
	sw.buf = sw.buf[:frame.BlockHeaderSize]
}

// cut writes the pending section bytes as blocks of loadChunk bytes and
// keeps the rest pending; at the section's end (last) the rest, if any, is
// the last block. A block after the first is sealed in place: its header
// overwrites the tail of the block just written.
func (sw *snapWriter) cut(last bool) {
	at := 0
	for ; len(sw.buf)-frame.BlockHeaderSize-at >= loadChunk; at += loadChunk {
		sw.write(sw.buf[at : at+frame.BlockHeaderSize+loadChunk])
	}
	if at > 0 {
		sw.buf = append(sw.buf[:frame.BlockHeaderSize], sw.buf[frame.BlockHeaderSize+at:]...)
	}
	if last && len(sw.buf) > frame.BlockHeaderSize {
		sw.flush()
	}
}

func (sw *snapWriter) write(block []byte) {
	frame.SealBlock(block)
	if sw.err == nil {
		_, sw.err = sw.w.Write(block)
	}
}

func appendEvent(b []byte, ev *eventlog.Event) []byte {
	le := binary.LittleEndian
	b = le.AppendUint64(b, uint64(ev.TS))
	b = append(b, byte(ev.Source), byte(ev.Severity))
	b = le.AppendUint16(b, uint16(len(ev.Host)))
	b = append(b, ev.Host...)
	b = le.AppendUint32(b, uint32(len(ev.Message)))
	return append(b, ev.Message...)
}

func appendFlow(b []byte, fm *FlowMeta) []byte {
	le := binary.LittleEndian
	b = append(b, byte(fm.Key.Proto))
	for _, a := range []netip.Addr{fm.Key.SrcIP, fm.Key.DstIP} {
		a16 := a.As16()
		b = append(append(b, boolByte(a.Is4())), a16[:]...)
	}
	b = le.AppendUint16(b, fm.Key.SrcPort)
	b = le.AppendUint16(b, fm.Key.DstPort)
	for _, v := range []uint64{uint64(fm.First), uint64(fm.Last), fm.Packets, fm.Bytes, fm.PayloadBytes} {
		b = le.AppendUint64(b, v)
	}
	b = append(b, byte(fm.TCPFlags), byte(fm.Label), boolByte(fm.Labeled))
	for _, v := range []uint32{fm.DNSQueries, fm.DNSResponses, fm.DNSAnyCount, uint32(len(fm.pktIDs))} {
		b = le.AppendUint32(b, v)
	}
	for _, id := range fm.pktIDs {
		b = le.AppendUint64(b, uint64(id))
	}
	return b
}

func boolByte(v bool) byte {
	if v {
		return 1
	}
	return 0
}

var errShortItem = errors.New("item runs past its section")

// parseEvent splits one event off the front of b onto evs, refusing one
// older than the last.
func parseEvent(evs *[]eventlog.Event, b []byte) ([]byte, error) {
	le := binary.LittleEndian
	if len(b) < 12 || len(b) < 16+int(le.Uint16(b[10:])) {
		return nil, errShortItem
	}
	host := 12 + int(le.Uint16(b[10:]))
	msg := host + 4 + int(le.Uint32(b[host:]))
	if len(b) < msg {
		return nil, errShortItem
	}
	ev := eventlog.Event{
		TS:       time.Duration(le.Uint64(b)),
		Source:   eventlog.Source(b[8]),
		Severity: eventlog.Severity(b[9]),
		Host:     string(b[12:host]),
		Message:  string(b[host+4 : msg]),
	}
	if n := len(*evs); n > 0 && ev.TS < (*evs)[n-1].TS {
		return nil, fmt.Errorf("at %v after %v", ev.TS, (*evs)[n-1].TS)
	}
	*evs = append(*evs, ev)
	return b[msg:], nil
}

// parseFlow splits one flow aggregate off the front of b.
func parseFlow(b []byte) (*FlowMeta, []byte, error) {
	le := binary.LittleEndian
	if len(b) < flowFixed {
		return nil, nil, errShortItem
	}
	n := int(le.Uint32(b[flowFixed-4:]))
	if (len(b)-flowFixed)/8 < n {
		return nil, nil, errShortItem
	}
	fm := &FlowMeta{pktIDs: make([]PacketID, n)}
	fm.Key.Proto = packet.IPProtocol(b[0])
	for i, a := range []*netip.Addr{&fm.Key.SrcIP, &fm.Key.DstIP} {
		is4 := b[1+17*i]
		*a = netip.AddrFrom16([16]byte(b[2+17*i:]))
		if is4 == 1 && a.Is4In6() {
			*a = a.Unmap()
		} else if is4 != 0 {
			return nil, nil, fmt.Errorf("address form byte %d for %v", is4, *a)
		}
	}
	f := b[35:flowFixed]
	fm.Key.SrcPort, fm.Key.DstPort = le.Uint16(f), le.Uint16(f[2:])
	fm.First, fm.Last = time.Duration(le.Uint64(f[4:])), time.Duration(le.Uint64(f[12:]))
	fm.Packets, fm.Bytes, fm.PayloadBytes = le.Uint64(f[20:]), le.Uint64(f[28:]), le.Uint64(f[36:])
	fm.TCPFlags, fm.Label, fm.Labeled = packet.TCPFlags(f[44]), traffic.Label(f[45]), f[46] == 1
	if f[46] > 1 {
		return nil, nil, fmt.Errorf("labeled byte %d", f[46])
	}
	fm.DNSQueries, fm.DNSResponses, fm.DNSAnyCount = le.Uint32(f[47:]), le.Uint32(f[51:]), le.Uint32(f[55:])
	b = b[flowFixed:]
	for i := range fm.pktIDs {
		fm.pktIDs[i] = PacketID(le.Uint64(b[8*i:]))
	}
	return fm, b[8*n:], nil
}

// Load reads a snapshot into a fresh store, re-ingesting every packet so
// all indexes are rebuilt. A truncated, corrupt, non-canonical or
// other-version snapshot returns an error wrapping ErrBadSnapshot (and
// frame.ErrCorrupt for a block that fails its checksum) — never a silently
// wrong store.
func Load(r io.Reader) (*Store, error) { return load(r, 0, 0) }

// load is Load into a store of the given shard count (0 = defaultShards),
// applying each packet block through addBatch — the function WAL replay
// applies through — with the given parse fan-out (0 = GOMAXPROCS). A
// snapshot holds the same bytes at any shard count and loads to the same
// answers at any (shards, workers).
func load(r io.Reader, shards, workers int) (_ *Store, err error) {
	defer func() {
		if err != nil {
			err = fmt.Errorf("%w: %w", ErrBadSnapshot, err)
		}
	}()
	var scratch []byte
	block := func(max int) (p []byte, err error) {
		if p, err = frame.ReadBlock(r, max, &scratch); err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return p, err
	}
	// section splits n items off a stream section with item. It reads a
	// block only when the next item runs past the bytes in hand, so what it
	// holds grows with the bytes read, never with n; only the section's last
	// block may be short, and no bytes may follow its last item.
	section := func(n uint64, item func([]byte) ([]byte, error)) error {
		var b []byte
		for full := true; n > 0; {
			rest, err := item(b)
			if err == errShortItem && full {
				var p []byte
				if p, err = block(loadChunk); err == nil {
					b, full = append(b, p...), len(p) == loadChunk
					continue
				}
			}
			if err != nil {
				return err
			}
			b, n = rest, n-1
		}
		if len(b) > 0 {
			return fmt.Errorf("%d bytes after the last item", len(b))
		}
		return nil
	}
	le := binary.LittleEndian
	var pre [6]byte
	if _, err := io.ReadFull(r, pre[:]); err != nil {
		return nil, fmt.Errorf("preamble: %w", err)
	}
	if v := le.Uint16(pre[4:]); string(pre[:4]) != persistMagic || v != persistVersion {
		return nil, fmt.Errorf("magic %q version %d (this build reads %s version %d only)", pre[:4], v, persistMagic, persistVersion)
	}
	h, err := block(snapHeaderSize)
	if err == nil && len(h) != snapHeaderSize {
		err = fmt.Errorf("%d bytes", len(h))
	}
	if err != nil {
		return nil, fmt.Errorf("header: %w", err)
	}
	nPkts, nEvts, nFlows := le.Uint64(h), le.Uint64(h[8:]), le.Uint64(h[16:])
	baseID, lastTS := le.Uint64(h[24:]), int64(le.Uint64(h[32:]))

	st := NewSharded(shards)
	st.nextID.Store(baseID)
	prevTS, prevSize := time.Duration(st.lastTS.Load()), 0
	for left := nPkts; left > 0; {
		p, err := block(snapBlockMax)
		if err != nil {
			return nil, fmt.Errorf("packets: %w", err)
		}
		frames, links, err := frame.DecodeRecords(p)
		switch {
		case err != nil:
		case len(frames) == 0 || uint64(len(frames)) > left:
			err = fmt.Errorf("block of %d records, %d left", len(frames), left)
		case len(p) > loadChunk && len(frames) > 1, prevSize > 0 && prevSize+frame.RecordHeaderSize+len(frames[0].Data) <= loadChunk:
			err = fmt.Errorf("%d-byte block of %d records cut off the chunk budget", len(p), len(frames))
		}
		for i := 0; err == nil && i < len(frames); i++ {
			if frames[i].TS < prevTS {
				err = fmt.Errorf("record at %v after %v", frames[i].TS, prevTS)
			}
			prevTS = frames[i].TS
		}
		if err != nil {
			return nil, fmt.Errorf("packets: %w", err)
		}
		st.addBatch(frames, links, workers)
		left -= uint64(len(frames))
		prevSize = len(p)
	}
	if lastTS < int64(prevTS) {
		return nil, fmt.Errorf("TS watermark %v below the last packet's %v", time.Duration(lastTS), prevTS)
	}
	st.lastTS.Store(lastTS)

	var evs []eventlog.Event
	if err := section(nEvts, func(b []byte) ([]byte, error) { return parseEvent(&evs, b) }); err != nil {
		return nil, fmt.Errorf("events: %w", err)
	}
	st.AddEvents(evs)

	// Overlay the persisted flow aggregates: re-ingest above rebuilt only
	// the hot packets' share, but a flow that straddles an eviction or the
	// seal boundary (or lives entirely in cold segments) has totals and ID
	// lists the hot slabs cannot reproduce.
	var prev *FlowMeta
	err = section(nFlows, func(b []byte) ([]byte, error) {
		fm, rest, err := parseFlow(b)
		if err == nil && prev != nil && !flowBefore(prev, fm) {
			err = errors.New("out of order")
		}
		if err != nil {
			return nil, err
		}
		prev = fm
		sh, had := st.shards[fm.Key.Hash()&st.mask], 0
		if old, ok := sh.flows[fm.Key]; ok {
			had = 96 + 8*len(old.pktIDs)
		}
		sh.indexBytes += uint64(max(96+8*len(fm.pktIDs)-had, 0))
		sh.flows[fm.Key] = fm
		return rest, nil
	})
	if n := st.Stats().Flows; err == nil && n != nFlows {
		err = fmt.Errorf("%d persisted, %d after load", nFlows, n)
	}
	if err != nil {
		return nil, fmt.Errorf("flows: %w", err)
	}
	if _, err := io.ReadFull(r, pre[:1]); err != io.EOF {
		return nil, errors.New("bytes after the flows")
	}
	return st, nil
}

// SaveFile writes a crash-safe snapshot to path through
// faults.PublishFile: a crash (or a fault injected via setFaultInjector)
// at any point leaves either the old snapshot or the new one at path —
// never a truncated hybrid.
func (s *Store) SaveFile(path string) error {
	if err := faults.PublishFile(path, s.persistFaults, s.Save); err != nil {
		return fmt.Errorf("datastore: snapshot: %w", err)
	}
	return nil
}

// LoadFile reads a snapshot file written by SaveFile.
func LoadFile(path string) (*Store, error) { return loadFile(path, 0, 0) }

// loadFile is load over the file at path.
func loadFile(path string, shards, workers int) (*Store, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("datastore: snapshot open: %w", err)
	}
	defer f.Close()
	return load(f, shards, workers)
}
