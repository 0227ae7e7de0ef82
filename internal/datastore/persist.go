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

// A snapshot is a checkpoint: a six-byte preamble and a sequence of frame
// checked blocks (all integers little-endian):
//
//	preamble: magic "CLDS" | version u16 (7)
//	header:   one block: event count u64 | flow count u64 | base ID u64 |
//	          cut ID u64 | last TS i64 | replay seq u64 |
//	          replay first ID u64 | replay TS i64
//	events:   ts i64 | source u8 | severity u8 | hostLen u16 | host |
//	          msgLen u32 | msg, per event
//	flows:    per flow, in Flows() order, a flowSize-byte record: key,
//	          times, totals, TCP flags, label
//
// Events and flows are byte streams cut into loadChunk-byte blocks, the
// last holding the rest (so an event of any length fits); the header's
// counts end each section.
//
// A checkpoint holds no packets: its hot rows are the WAL's records from
// the replay position on (walPos), which Recover replays on top of it. It
// holds what those rows cannot rebuild: the base ID (the smallest hot ID),
// the cut ID (the next ID to assign), the flows, whose totals still count
// rows that are no longer hot, the events and the TS watermark. Indexes are
// derived data and are rebuilt.
//
// The layout is canonical: load refuses what the writer would not have
// written (a block cut elsewhere, events or flows out of order, an ID, a
// watermark or a replay position out of range, trailing bytes), so a
// checkpoint that loads re-encodes to its own bytes. Versions 1 to 6 are
// refused, not migrated.

const (
	persistMagic   = "CLDS"
	persistVersion = 7
	// loadChunk is a snapshot block's byte budget.
	loadChunk = 256 << 10
	// snapHeaderSize is the header block's payload.
	snapHeaderSize = 8 * 8
	// flowSize is a persisted flow's size.
	flowSize = 1 + 2*17 + 2*2 + 5*8 + 3 + 3*4
)

// errBadSnapshot reports a corrupt or incompatible snapshot stream.
var errBadSnapshot = errors.New("datastore: bad snapshot")

// save writes a checkpoint to w and returns its replay position: the newest
// of the live WAL segments (oldest first) that starts at or below the base
// ID.
func (s *Store) save(w io.Writer, live []walSeg) (walPos, error) {
	unlock := s.rlockAll()
	defer unlock()
	// The base ID is the smallest hot ID, or nextID when nothing is hot:
	// a slab is ID-ordered and the hot IDs run contiguously up to nextID.
	baseID := s.nextID.Load()
	for _, sh := range s.shards {
		if len(sh.packets) > 0 {
			baseID = min(baseID, uint64(sh.packets[0].ID))
		}
	}
	var pos walPos
	for _, sg := range live {
		if uint64(sg.firstID) <= baseID {
			pos = sg.walPos
		}
	}
	if pos.seq == 0 {
		return pos, fmt.Errorf("datastore: no WAL segment starts at or below hot packet %d", baseID)
	}
	return pos, s.encodeLocked(w, PacketID(baseID), pos)
}

// encodeLocked writes the checkpoint of base ID base and replay position
// pos. Caller holds every shard read lock.
func (s *Store) encodeLocked(w io.Writer, base PacketID, pos walPos) error {
	s.eventsMu.RLock()
	defer s.eventsMu.RUnlock()
	var flows []*FlowMeta
	for _, sh := range s.shards {
		for _, fm := range sh.flows {
			flows = append(flows, fm)
		}
	}
	sort.Slice(flows, func(i, j int) bool { return flowBefore(flows[i], flows[j]) })

	sw := &snapWriter{w: w, buf: make([]byte, frame.BlockHeaderSize, frame.BlockHeaderSize+2*loadChunk)}
	_, sw.err = w.Write(binary.LittleEndian.AppendUint16([]byte(persistMagic), persistVersion))
	for _, v := range []uint64{uint64(len(s.events)), uint64(len(flows)), uint64(base), s.nextID.Load(),
		uint64(s.lastTS.Load()), pos.seq, uint64(pos.firstID), uint64(pos.lastTS)} {
		sw.buf = binary.LittleEndian.AppendUint64(sw.buf, v)
	}
	sw.flush()
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
	for _, v := range []uint32{fm.DNSQueries, fm.DNSResponses, fm.DNSAnyCount} {
		b = le.AppendUint32(b, v)
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
	if len(b) < flowSize {
		return nil, nil, errShortItem
	}
	fm := &FlowMeta{}
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
	f := b[35:flowSize]
	fm.Key.SrcPort, fm.Key.DstPort = le.Uint16(f), le.Uint16(f[2:])
	fm.First, fm.Last = time.Duration(le.Uint64(f[4:])), time.Duration(le.Uint64(f[12:]))
	fm.Packets, fm.Bytes, fm.PayloadBytes = le.Uint64(f[20:]), le.Uint64(f[28:]), le.Uint64(f[36:])
	fm.TCPFlags, fm.Label, fm.Labeled = packet.TCPFlags(f[44]), traffic.Label(f[45]), f[46] == 1
	if f[46] > 1 {
		return nil, nil, fmt.Errorf("labeled byte %d", f[46])
	}
	fm.DNSQueries, fm.DNSResponses, fm.DNSAnyCount = le.Uint32(f[47:]), le.Uint32(f[51:]), le.Uint32(f[55:])
	return fm, b[flowSize:], nil
}

// load reads a checkpoint into a fresh store of the given shard count
// (0 = defaultShards) and returns it with its base ID and replay position.
// A truncated, corrupt, non-canonical or other-version snapshot returns an
// error wrapping errBadSnapshot (and frame.ErrCorrupt for a block that
// fails its checksum) — never a silently wrong store.
func load(r io.Reader, shards int) (_ *Store, base PacketID, pos walPos, err error) {
	defer func() {
		if err != nil {
			err = fmt.Errorf("%w: %w", errBadSnapshot, err)
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
		return nil, 0, pos, fmt.Errorf("preamble: %w", err)
	}
	if v := le.Uint16(pre[4:]); string(pre[:4]) != persistMagic || v != persistVersion {
		return nil, 0, pos, fmt.Errorf("magic %q version %d (this build reads %s version %d only)", pre[:4], v, persistMagic, persistVersion)
	}
	h, err := block(snapHeaderSize)
	if err == nil && len(h) != snapHeaderSize {
		err = fmt.Errorf("%d bytes", len(h))
	}
	if err != nil {
		return nil, 0, pos, fmt.Errorf("header: %w", err)
	}
	nEvts, nFlows := le.Uint64(h), le.Uint64(h[8:])
	baseID, cutID, lastTS := le.Uint64(h[16:]), le.Uint64(h[24:]), int64(le.Uint64(h[32:]))
	pos = walPos{seq: le.Uint64(h[40:]), firstID: PacketID(le.Uint64(h[48:])), lastTS: int64(le.Uint64(h[56:]))}
	// The replay position starts at or below the base, before the watermark.
	if baseID > cutID || pos.seq == 0 || uint64(pos.firstID) > baseID || pos.lastTS > lastTS {
		return nil, 0, pos, fmt.Errorf("header: base ID %d, cut ID %d, TS watermark %v, replay position %+v",
			baseID, cutID, time.Duration(lastTS), pos)
	}
	st := NewSharded(shards)
	st.nextID.Store(cutID)
	st.lastTS.Store(lastTS)

	var evs []eventlog.Event
	if err := section(nEvts, func(b []byte) ([]byte, error) { return parseEvent(&evs, b) }); err != nil {
		return nil, 0, pos, fmt.Errorf("events: %w", err)
	}
	st.AddEvents(evs)

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
		sh := st.shards[fm.Key.Hash()&st.mask]
		if _, ok := sh.flows[fm.Key]; !ok {
			sh.indexBytes += flowIndexBytes
		}
		sh.flows[fm.Key] = fm
		return rest, nil
	})
	if n := st.Stats().Flows; err == nil && n != nFlows {
		err = fmt.Errorf("%d persisted, %d after load", nFlows, n)
	}
	if err != nil {
		return nil, 0, pos, fmt.Errorf("flows: %w", err)
	}
	if _, err := io.ReadFull(r, pre[:1]); err != io.EOF {
		return nil, 0, pos, errors.New("bytes after the flows")
	}
	return st, PacketID(baseID), pos, nil
}

// loadFile is load over the file at path.
func loadFile(fsys faults.FS, path string, shards int) (*Store, PacketID, walPos, error) {
	f, err := fsys.OpenFile(path, os.O_RDONLY)
	if err != nil {
		return nil, 0, walPos{}, fmt.Errorf("datastore: snapshot open: %w", err)
	}
	defer f.Close()
	return load(f, shards)
}
