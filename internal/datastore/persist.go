package datastore

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
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

// The persistence format is a simple length-prefixed binary stream, with
// a CRC32 (IEEE) per section so corruption is detected instead of loaded:
//
//	header:  magic "CLDS" | version u16 |
//	         packet count u64 | event count u64 | header crc u32
//	packets: per packet: a frame record header (ts i64 | link u16 |
//	         label u8 | actor u8 | len u32) | bytes
//	         then: packets-section crc u32
//	events:  per event: ts i64 | source u8 | severity u8 |
//	         hostLen u16 | host | msgLen u32 | msg
//	         then: events-section crc u32
//
// Flow metadata and indexes are rebuilt on load (they are derived data),
// which keeps the format stable across index-layout changes — the same
// choice real capture stores make. File-level snapshots (SaveFile) are
// crash-safe: published through faults.PublishFile, so a crash mid-save
// always leaves the previous snapshot intact.
//
// Version 3 is written by tiered stores: once packets live in cold
// segments, a snapshot of the hot tier alone can no longer rebuild
// everything, so the header carries the base packet ID and the timestamp
// watermark (re-ingest on load reassigns the ORIGINAL IDs — cold segments
// store IDs, so recovery must not renumber), and a flows section persists
// the full flow aggregates (hot re-ingest alone would reconstruct only
// the hot packets' share). Version 2 stays the untiered format,
// bit-identical to what earlier releases wrote.

const (
	persistMagic         = "CLDS"
	persistVersion       = 2
	persistVersionTiered = 3
	// loadChunk is the arena Load cuts packet bytes from.
	loadChunk = 256 << 10
)

// ErrBadSnapshot reports a corrupt or incompatible snapshot stream.
var ErrBadSnapshot = errors.New("datastore: bad snapshot")

// errChecksum reports a snapshot whose section checksum does not match —
// truncation or bit rot. It wraps ErrBadSnapshot, so errors.Is works
// against either sentinel.
var errChecksum = fmt.Errorf("%w: checksum mismatch", ErrBadSnapshot)

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

// crcWriter accumulates a CRC32 over everything written through it.
type crcWriter struct {
	w   io.Writer
	crc uint32
}

func (cw *crcWriter) Write(p []byte) (int, error) {
	n, err := cw.w.Write(p)
	cw.crc = crc32.Update(cw.crc, crc32.IEEETable, p[:n])
	return n, err
}

func (cw *crcWriter) WriteString(s string) (int, error) { return cw.Write([]byte(s)) }

// crcReader accumulates a CRC32 over everything read through it.
type crcReader struct {
	r   io.Reader
	crc uint32
}

func (cr *crcReader) Read(p []byte) (int, error) {
	n, err := cr.r.Read(p)
	cr.crc = crc32.Update(cr.crc, crc32.IEEETable, p[:n])
	return n, err
}

// Save writes the store's packets and events to w. Packets stream out in
// global (timestamp, ID) order — the serial ingest order — so snapshots
// are byte-identical at any shard count. The store remains usable;
// concurrent ingest during Save is blocked by the shard locks.
func (s *Store) Save(w io.Writer) error {
	unlock := s.rlockAll()
	defer unlock()
	s.eventsMu.RLock()
	defer s.eventsMu.RUnlock()
	bw := bufio.NewWriterSize(w, 1<<16)
	if _, err := bw.WriteString(persistMagic); err != nil {
		return err
	}
	tiered := s.tier.Load() != nil
	version := uint16(persistVersion)
	if tiered {
		version = persistVersionTiered
	}
	nPackets := 0
	var flows []*FlowMeta
	slabs := make([][]StoredPacket, len(s.shards))
	for i, sh := range s.shards {
		nPackets += len(sh.packets)
		slabs[i] = sh.packets
		if tiered {
			for _, fm := range sh.flows {
				flows = append(flows, fm)
			}
		}
	}
	if tiered {
		// Deterministic flow order (same comparator as every listing), so
		// snapshots stay byte-identical across shard counts.
		sort.Slice(flows, func(i, j int) bool {
			if flows[i].First != flows[j].First {
				return flows[i].First < flows[j].First
			}
			return flows[i].Key.Hash() < flows[j].Key.Hash()
		})
	}
	var scratch [frame.RecordHeaderSize]byte
	binary.LittleEndian.PutUint16(scratch[:2], version)
	if _, err := bw.Write(scratch[:2]); err != nil {
		return err
	}
	cw := &crcWriter{w: bw}
	binary.LittleEndian.PutUint64(scratch[:8], uint64(nPackets))
	if _, err := cw.Write(scratch[:8]); err != nil {
		return err
	}
	binary.LittleEndian.PutUint64(scratch[:8], uint64(len(s.events)))
	if _, err := cw.Write(scratch[:8]); err != nil {
		return err
	}
	if tiered {
		// Base ID: the smallest hot ID (all hot IDs are contiguous up to
		// nextID), or nextID itself when everything is sealed. Load seeds
		// the sequence here so re-ingest reassigns the original IDs.
		baseID := s.nextID.Load()
		for _, slab := range slabs {
			for i := range slab {
				if uint64(slab[i].ID) < baseID {
					baseID = uint64(slab[i].ID)
				}
			}
		}
		binary.LittleEndian.PutUint64(scratch[:8], uint64(len(flows)))
		if _, err := cw.Write(scratch[:8]); err != nil {
			return err
		}
		binary.LittleEndian.PutUint64(scratch[:8], baseID)
		if _, err := cw.Write(scratch[:8]); err != nil {
			return err
		}
		binary.LittleEndian.PutUint64(scratch[:8], uint64(s.lastTS.Load()))
		if _, err := cw.Write(scratch[:8]); err != nil {
			return err
		}
	}
	if err := writeCRC(bw, cw); err != nil {
		return err
	}
	cur := newMergeCursor(slabs)
	for sp := cur.next(); sp != nil; sp = cur.next() {
		h := frame.RecordHeader{TS: sp.TS, Link: sp.Link, Label: sp.Label, Actor: sp.Actor, DataLen: len(sp.Data)}
		if _, err := cw.Write(h.Append(scratch[:0])); err != nil {
			return err
		}
		if _, err := cw.Write(sp.Data); err != nil {
			return err
		}
	}
	if err := writeCRC(bw, cw); err != nil {
		return err
	}
	for i := range s.events {
		ev := &s.events[i]
		binary.LittleEndian.PutUint64(scratch[:8], uint64(ev.TS))
		scratch[8] = byte(ev.Source)
		scratch[9] = byte(ev.Severity)
		binary.LittleEndian.PutUint16(scratch[10:12], uint16(len(ev.Host)))
		if _, err := cw.Write(scratch[:12]); err != nil {
			return err
		}
		if _, err := cw.WriteString(ev.Host); err != nil {
			return err
		}
		binary.LittleEndian.PutUint32(scratch[:4], uint32(len(ev.Message)))
		if _, err := cw.Write(scratch[:4]); err != nil {
			return err
		}
		if _, err := cw.WriteString(ev.Message); err != nil {
			return err
		}
	}
	if err := writeCRC(bw, cw); err != nil {
		return err
	}
	if tiered {
		for _, fm := range flows {
			if err := writeFlowMeta(cw, fm); err != nil {
				return err
			}
		}
		if err := writeCRC(bw, cw); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// writeFlowMeta serializes one flow aggregate (v3 flows section).
func writeFlowMeta(cw *crcWriter, fm *FlowMeta) error {
	var b [16]byte
	addr := func(a netip.Addr) error {
		flag := byte(0)
		if a.Is4() {
			flag = 1
		}
		if _, err := cw.Write([]byte{flag}); err != nil {
			return err
		}
		a16 := a.As16()
		_, err := cw.Write(a16[:])
		return err
	}
	if _, err := cw.Write([]byte{byte(fm.Key.Proto)}); err != nil {
		return err
	}
	if err := addr(fm.Key.SrcIP); err != nil {
		return err
	}
	if err := addr(fm.Key.DstIP); err != nil {
		return err
	}
	binary.LittleEndian.PutUint16(b[:2], fm.Key.SrcPort)
	binary.LittleEndian.PutUint16(b[2:4], fm.Key.DstPort)
	if _, err := cw.Write(b[:4]); err != nil {
		return err
	}
	for _, v := range []uint64{
		uint64(fm.First), uint64(fm.Last), fm.Packets, fm.Bytes, fm.PayloadBytes,
	} {
		binary.LittleEndian.PutUint64(b[:8], v)
		if _, err := cw.Write(b[:8]); err != nil {
			return err
		}
	}
	labeled := byte(0)
	if fm.Labeled {
		labeled = 1
	}
	b[0] = byte(fm.TCPFlags)
	b[1] = byte(fm.Label)
	b[2] = labeled
	binary.LittleEndian.PutUint32(b[3:7], fm.DNSQueries)
	binary.LittleEndian.PutUint32(b[7:11], fm.DNSResponses)
	binary.LittleEndian.PutUint32(b[11:15], fm.DNSAnyCount)
	if _, err := cw.Write(b[:15]); err != nil {
		return err
	}
	binary.LittleEndian.PutUint32(b[:4], uint32(len(fm.pktIDs)))
	if _, err := cw.Write(b[:4]); err != nil {
		return err
	}
	for _, id := range fm.pktIDs {
		binary.LittleEndian.PutUint64(b[:8], uint64(id))
		if _, err := cw.Write(b[:8]); err != nil {
			return err
		}
	}
	return nil
}

// readFlowMeta inverts writeFlowMeta.
func readFlowMeta(cr *crcReader) (*FlowMeta, error) {
	var b [16]byte
	fm := &FlowMeta{}
	addr := func() (netip.Addr, error) {
		var hdr [17]byte
		if _, err := io.ReadFull(cr, hdr[:]); err != nil {
			return netip.Addr{}, err
		}
		var a16 [16]byte
		copy(a16[:], hdr[1:])
		if hdr[0] == 1 {
			var a4 [4]byte
			copy(a4[:], hdr[13:17])
			return netip.AddrFrom4(a4), nil
		}
		return netip.AddrFrom16(a16), nil
	}
	if _, err := io.ReadFull(cr, b[:1]); err != nil {
		return nil, err
	}
	fm.Key.Proto = packet.IPProtocol(b[0])
	var err error
	if fm.Key.SrcIP, err = addr(); err != nil {
		return nil, err
	}
	if fm.Key.DstIP, err = addr(); err != nil {
		return nil, err
	}
	if _, err := io.ReadFull(cr, b[:4]); err != nil {
		return nil, err
	}
	fm.Key.SrcPort = binary.LittleEndian.Uint16(b[:2])
	fm.Key.DstPort = binary.LittleEndian.Uint16(b[2:4])
	var u64s [5]uint64
	for i := range u64s {
		if _, err := io.ReadFull(cr, b[:8]); err != nil {
			return nil, err
		}
		u64s[i] = binary.LittleEndian.Uint64(b[:8])
	}
	fm.First = time.Duration(u64s[0])
	fm.Last = time.Duration(u64s[1])
	fm.Packets, fm.Bytes, fm.PayloadBytes = u64s[2], u64s[3], u64s[4]
	if _, err := io.ReadFull(cr, b[:15]); err != nil {
		return nil, err
	}
	fm.TCPFlags = packet.TCPFlags(b[0])
	fm.Label = traffic.Label(b[1])
	fm.Labeled = b[2] == 1
	fm.DNSQueries = binary.LittleEndian.Uint32(b[3:7])
	fm.DNSResponses = binary.LittleEndian.Uint32(b[7:11])
	fm.DNSAnyCount = binary.LittleEndian.Uint32(b[11:15])
	if _, err := io.ReadFull(cr, b[:4]); err != nil {
		return nil, err
	}
	n := binary.LittleEndian.Uint32(b[:4])
	if n > 1<<28 {
		return nil, fmt.Errorf("%w: flow claims %d packet IDs", ErrBadSnapshot, n)
	}
	fm.pktIDs = make([]PacketID, n)
	for i := range fm.pktIDs {
		if _, err := io.ReadFull(cr, b[:8]); err != nil {
			return nil, err
		}
		fm.pktIDs[i] = PacketID(binary.LittleEndian.Uint64(b[:8]))
	}
	return fm, nil
}

// writeCRC emits cw's accumulated section checksum (bypassing cw so the
// checksum doesn't checksum itself) and resets it for the next section.
func writeCRC(w io.Writer, cw *crcWriter) error {
	var b [4]byte
	binary.LittleEndian.PutUint32(b[:], cw.crc)
	cw.crc = 0
	_, err := w.Write(b[:])
	return err
}

// checkCRC reads a stored section checksum (bypassing cr) and compares it
// against the accumulated one, resetting cr for the next section.
func checkCRC(r io.Reader, cr *crcReader, section string) error {
	sum := cr.crc
	cr.crc = 0
	var b [4]byte
	if _, err := io.ReadFull(r, b[:]); err != nil {
		return fmt.Errorf("%w: %s crc: %v", ErrBadSnapshot, section, err)
	}
	if stored := binary.LittleEndian.Uint32(b[:]); stored != sum {
		return fmt.Errorf("%w: %s section (stored %08x, computed %08x)", errChecksum, section, stored, sum)
	}
	return nil
}

// Load reads a snapshot into a fresh store, re-ingesting every packet so
// all indexes and flow metadata are rebuilt. Truncated or corrupt
// snapshots return an error wrapping ErrBadSnapshot (errChecksum for
// checksum mismatches) — never a silently wrong store.
func Load(r io.Reader) (*Store, error) { return load(r, 0, 0) }

// load is Load into a store of the given shard count (0 = defaultShards),
// applying packets through addBatch — the function WAL replay applies
// through — one arena chunk of records at a time with the given parse
// fan-out (0 = GOMAXPROCS). A snapshot holds the same bytes at any shard
// count and loads to the same answers at any (shards, workers).
func load(r io.Reader, shards, workers int) (*Store, error) {
	br := bufio.NewReaderSize(r, 1<<16)
	head := make([]byte, 4+2)
	if _, err := io.ReadFull(br, head); err != nil {
		return nil, fmt.Errorf("%w: header: %v", ErrBadSnapshot, err)
	}
	if string(head[:4]) != persistMagic {
		return nil, fmt.Errorf("%w: magic %q", ErrBadSnapshot, head[:4])
	}
	v := binary.LittleEndian.Uint16(head[4:6])
	if v != persistVersion && v != persistVersionTiered {
		return nil, fmt.Errorf("%w: version %d", ErrBadSnapshot, v)
	}
	tiered := v == persistVersionTiered
	cr := &crcReader{r: br}
	var counts [16]byte
	if _, err := io.ReadFull(cr, counts[:]); err != nil {
		return nil, fmt.Errorf("%w: header counts: %v", ErrBadSnapshot, err)
	}
	nPkts := binary.LittleEndian.Uint64(counts[:8])
	nEvts := binary.LittleEndian.Uint64(counts[8:16])
	var nFlows, baseID, storedLastTS uint64
	if tiered {
		var extra [24]byte
		if _, err := io.ReadFull(cr, extra[:]); err != nil {
			return nil, fmt.Errorf("%w: tiered header: %v", ErrBadSnapshot, err)
		}
		nFlows = binary.LittleEndian.Uint64(extra[:8])
		baseID = binary.LittleEndian.Uint64(extra[8:16])
		storedLastTS = binary.LittleEndian.Uint64(extra[16:24])
	}
	if err := checkCRC(br, cr, "header"); err != nil {
		return nil, err
	}

	st := NewSharded(shards)
	if tiered {
		// Seed the ID sequence so re-ingest reassigns the ORIGINAL hot IDs:
		// cold segments reference packets by ID, so recovery must not
		// renumber the hot tier underneath them.
		st.nextID.Store(baseID)
	}
	var scratch [frame.RecordHeaderSize]byte
	var arena []byte
	// The stored link ids ride beside the frames so flow metadata and the
	// secondary indexes (the link posting lists included) rebuild exactly
	// as they were at save time.
	var frames []traffic.Frame
	var links []uint16
	flush := func() {
		st.addBatch(frames, links, workers)
		frames, links = frames[:0], links[:0]
	}
	for i := uint64(0); i < nPkts; i++ {
		if _, err := io.ReadFull(cr, scratch[:]); err != nil {
			return nil, fmt.Errorf("%w: packet %d header: %v", ErrBadSnapshot, i, err)
		}
		h, err := frame.ParseRecordHeader(scratch[:])
		if err != nil {
			return nil, fmt.Errorf("%w: packet %d: %v", ErrBadSnapshot, i, err)
		}
		// Packet bytes are cut from shared chunks with their capacity
		// fenced off, like a decoded batch's arena (frame.DecodeRecords);
		// a chunk is sized by a constant or one checked record length. A
		// full chunk's records are applied as one batch.
		if arena == nil || h.DataLen > cap(arena)-len(arena) {
			flush()
			arena = make([]byte, 0, max(loadChunk, h.DataLen))
		}
		at := len(arena)
		arena = arena[:at+h.DataLen]
		data := arena[at:len(arena):len(arena)]
		if _, err := io.ReadFull(cr, data); err != nil {
			return nil, fmt.Errorf("%w: packet %d body: %v", ErrBadSnapshot, i, err)
		}
		frames = append(frames, traffic.Frame{TS: h.TS, Data: data, Label: h.Label, Actor: h.Actor})
		links = append(links, h.Link)
	}
	if err := checkCRC(br, cr, "packets"); err != nil {
		return nil, err
	}
	flush()
	evs := make([]eventlog.Event, 0, min(nEvts, 1<<16))
	for i := uint64(0); i < nEvts; i++ {
		if _, err := io.ReadFull(cr, scratch[:12]); err != nil {
			return nil, fmt.Errorf("%w: event %d header: %v", ErrBadSnapshot, i, err)
		}
		var ev eventlog.Event
		ev.TS = time.Duration(binary.LittleEndian.Uint64(scratch[:8]))
		ev.Source = eventlog.Source(scratch[8])
		ev.Severity = eventlog.Severity(scratch[9])
		hostLen := binary.LittleEndian.Uint16(scratch[10:12])
		host := make([]byte, hostLen)
		if _, err := io.ReadFull(cr, host); err != nil {
			return nil, fmt.Errorf("%w: event %d host: %v", ErrBadSnapshot, i, err)
		}
		ev.Host = string(host)
		if _, err := io.ReadFull(cr, scratch[:4]); err != nil {
			return nil, fmt.Errorf("%w: event %d msg len: %v", ErrBadSnapshot, i, err)
		}
		msgLen := binary.LittleEndian.Uint32(scratch[:4])
		if msgLen > 1<<20 {
			return nil, fmt.Errorf("%w: event %d claims %d-byte message", ErrBadSnapshot, i, msgLen)
		}
		msg := make([]byte, msgLen)
		if _, err := io.ReadFull(cr, msg); err != nil {
			return nil, fmt.Errorf("%w: event %d msg: %v", ErrBadSnapshot, i, err)
		}
		ev.Message = string(msg)
		evs = append(evs, ev)
	}
	if err := checkCRC(br, cr, "events"); err != nil {
		return nil, err
	}
	if len(evs) > 0 {
		st.AddEvents(evs)
	}
	if tiered {
		// Overlay the persisted flow aggregates: re-ingest above rebuilt only
		// the hot packets' share, but a flow that straddles the seal boundary
		// (or lives entirely in cold segments) has byte/packet totals and ID
		// lists the hot slabs cannot reproduce.
		if nFlows > 1<<32 {
			return nil, fmt.Errorf("%w: header claims %d flows", ErrBadSnapshot, nFlows)
		}
		for i := uint64(0); i < nFlows; i++ {
			fm, err := readFlowMeta(cr)
			if err != nil {
				return nil, fmt.Errorf("%w: flow %d: %v", ErrBadSnapshot, i, err)
			}
			sh := st.shards[fm.Key.Hash()&st.mask]
			if old, ok := sh.flows[fm.Key]; ok {
				if d := len(fm.pktIDs) - len(old.pktIDs); d > 0 {
					sh.indexBytes += 8 * uint64(d)
				}
			} else {
				sh.indexBytes += 96 + 8*uint64(len(fm.pktIDs))
			}
			sh.flows[fm.Key] = fm
		}
		if err := checkCRC(br, cr, "flows"); err != nil {
			return nil, err
		}
		if int64(storedLastTS) > st.lastTS.Load() {
			st.lastTS.Store(int64(storedLastTS))
		}
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
