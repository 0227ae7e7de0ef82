package frame

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"testing"
	"time"

	"campuslab/internal/traffic"
)

func testFrames(n int) ([]traffic.Frame, []uint16) {
	frames := make([]traffic.Frame, n)
	links := make([]uint16, n)
	for i := range frames {
		data := make([]byte, 14+i*7)
		for j := range data {
			data[j] = byte(i*31 + j)
		}
		frames[i] = traffic.Frame{
			TS:    time.Duration(i) * time.Millisecond,
			Data:  data,
			Label: traffic.Label(i % int(traffic.NumLabels)),
			Actor: i%2 == 1,
		}
		links[i] = uint16(i * 257)
	}
	return frames, links
}

// reencodeBlocks walks b as a run of checked blocks holding record lists
// and returns what the encoders produce for the decoded content.
func reencodeBlocks(t *testing.T, b []byte) (out []byte, blocks int) {
	t.Helper()
	for len(b) > 0 {
		payload, sum, rest, err := Next(b, MaxBlock)
		if err != nil {
			t.Fatalf("block %d: %v", blocks, err)
		}
		if err := Check(payload, sum); err != nil {
			t.Fatalf("block %d: %v", blocks, err)
		}
		frames, links, err := DecodeRecords(payload)
		if err != nil {
			t.Fatalf("block %d: %v", blocks, err)
		}
		out = AppendBlock(out, AppendRecords(nil, frames, links))
		b = rest
		blocks++
	}
	return out, blocks
}

// TestFixturesRoundTrip pins the two layouts against bytes PR 17's
// hand-written encoders produced (wal.go's encodeBatch, fleet's
// appendMessage + EncodeBatch): decode with this package, re-encode, and
// every byte must come back.
func TestFixturesRoundTrip(t *testing.T) {
	wal, err := os.ReadFile(filepath.Join("testdata", "wal-segment.wal"))
	if err != nil {
		t.Fatal(err)
	}
	const walHeader = 4 + 2 + 8 // magic | version | seq: the container's, not ours
	got, blocks := reencodeBlocks(t, wal[walHeader:])
	if blocks != 2 || !bytes.Equal(got, wal[walHeader:]) {
		t.Fatalf("WAL segment: %d blocks, re-encode differs from the fixture", blocks)
	}

	msg, err := os.ReadFile(filepath.Join("testdata", "fleet-batch.msg"))
	if err != nil {
		t.Fatal(err)
	}
	payload, sum, rest, err := Next(msg[1:], MaxBlock) // msg[0] is the fleet's type byte
	if err != nil || len(rest) != 0 || Check(payload, sum) != nil {
		t.Fatalf("fleet message: err %v, %d trailing bytes", err, len(rest))
	}
	frames, links, err := DecodeRecords(payload[8:]) // payload[:8] is the batch seq
	if err != nil || len(frames) != 4 || links[3] != 513 {
		t.Fatalf("fleet batch: %d frames, links %v, err %v", len(frames), links, err)
	}
	again := AppendBlock(msg[:1:1], AppendRecords(payload[:8:8], frames, links))
	if !bytes.Equal(again, msg) {
		t.Fatal("fleet message re-encode differs from the fixture")
	}
}

func TestSealBlockMatchesAppendBlock(t *testing.T) {
	frames, links := testFrames(5)
	b := AppendRecords(make([]byte, BlockHeaderSize), frames, links)
	if len(b) != BlockHeaderSize+RecordsSize(frames) {
		t.Fatalf("RecordsSize %d, encoded %d", RecordsSize(frames), len(b)-BlockHeaderSize)
	}
	SealBlock(b)
	if want := AppendBlock(nil, b[BlockHeaderSize:]); !bytes.Equal(b, want) {
		t.Fatal("a block sealed in place differs from an appended one")
	}
}

func TestNextIsStructuralOnly(t *testing.T) {
	b := AppendBlock(nil, []byte("payload"))
	b[len(b)-1] ^= 1 // payload rot: Next must not notice, Check must
	payload, sum, rest, err := Next(b, MaxBlock)
	if err != nil || len(rest) != 0 {
		t.Fatalf("Next: %v, %d trailing", err, len(rest))
	}
	if err := Check(payload, sum); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Check on a flipped payload: %v", err)
	}
	for name, bad := range map[string][]byte{
		"short header": b[:BlockHeaderSize-1],
		"truncated":    b[:len(b)-1],
	} {
		if _, _, _, err := Next(bad, MaxBlock); !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: %v", name, err)
		}
	}
	if _, _, _, err := Next(b, 3); !errors.Is(err, ErrCorrupt) {
		t.Errorf("length over the caller's cap: %v", err)
	}
}

func TestReadBlockEOFSemantics(t *testing.T) {
	one := AppendBlock(nil, []byte("first"))
	stream := AppendBlock(bytes.Clone(one), nil)
	var scratch []byte
	r := bytes.NewReader(stream)
	if p, err := ReadBlock(r, MaxBlock, &scratch); err != nil || string(p) != "first" {
		t.Fatalf("first block: %q %v", p, err)
	}
	if p, err := ReadBlock(r, MaxBlock, &scratch); err != nil || len(p) != 0 {
		t.Fatalf("empty block: %q %v", p, err)
	}
	if _, err := ReadBlock(r, MaxBlock, &scratch); err != io.EOF {
		t.Fatalf("boundary: %v, want io.EOF", err)
	}
	for n := 1; n < len(one); n++ {
		if _, err := ReadBlock(bytes.NewReader(one[:n]), MaxBlock, &scratch); err != io.ErrUnexpectedEOF {
			t.Fatalf("cut at %d: %v, want io.ErrUnexpectedEOF", n, err)
		}
	}
	flipped := bytes.Clone(one)
	flipped[len(flipped)-1] ^= 1
	if _, err := ReadBlock(bytes.NewReader(flipped), MaxBlock, &scratch); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("flipped payload: %v", err)
	}
	// A length over the cap is refused before it can size an allocation.
	huge := binary.LittleEndian.AppendUint32(nil, MaxBlock+1)
	huge = append(huge, 0, 0, 0, 0)
	scratch = nil
	if _, err := ReadBlock(bytes.NewReader(huge), MaxBlock, &scratch); !errors.Is(err, ErrCorrupt) || cap(scratch) > BlockHeaderSize {
		t.Fatalf("oversized length: err %v, scratch grew to %d", err, cap(scratch))
	}
}

// TestDecodeRecordsArena: a decoded list's frames are cut from one arena,
// so each must be fenced from the next — appending to a frame's Data moves
// it out of the arena instead of running over its neighbour — the decoded
// bytes must not alias the input, and the number of allocations must not
// depend on the number of records.
func TestDecodeRecordsArena(t *testing.T) {
	frames, links := testFrames(12)
	frames[4].Data = nil // an empty record between two full ones
	list := AppendRecords(nil, frames, links)
	got, _, err := DecodeRecords(list)
	if err != nil {
		t.Fatal(err)
	}
	for i := range list {
		list[i] = 0xee // the caller reuses its read buffer
	}
	for i := range got {
		if cap(got[i].Data) != len(got[i].Data) {
			t.Fatalf("frame %d: cap %d over len %d reaches into its neighbour", i, cap(got[i].Data), len(got[i].Data))
		}
		got[i].Data = append(got[i].Data, 0xaa, 0xbb, 0xcc)
	}
	for i := range got {
		if want := append(append([]byte(nil), frames[i].Data...), 0xaa, 0xbb, 0xcc); !bytes.Equal(got[i].Data, want) {
			t.Fatalf("frame %d changed when its neighbours were appended to", i)
		}
	}

	decodeAllocs := func(n int) float64 {
		frames, links := testFrames(n)
		list := AppendRecords(nil, frames, links)
		return testing.AllocsPerRun(10, func() {
			if _, _, err := DecodeRecords(list); err != nil {
				t.Fatal(err)
			}
		})
	}
	if few, many := decodeAllocs(2), decodeAllocs(200); few != many || many > 3 {
		t.Errorf("DecodeRecords allocates %v times for 2 records, %v for 200: want the same three (frames, links, arena)", few, many)
	}
}

// TestDecodeRecordsArenaSizedFromBytesPresent: the arena is sized from the
// bytes the list holds, never from a length a record claims — a record
// claiming the 1 MiB cap in a two-record list is refused before it is copied.
func TestDecodeRecordsArenaSizedFromBytesPresent(t *testing.T) {
	frames, links := testFrames(2)
	list := AppendRecords(nil, frames, links)
	binary.LittleEndian.PutUint32(list[4+12:], MaxRecordData)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, _, err := DecodeRecords(list)
	runtime.ReadMemStats(&after)
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("over-long record: %v, want ErrCorrupt", err)
	}
	// TotalAlloc is process-wide, so leave room for the runtime's own
	// allocations; the claimed length is 1 MiB.
	if grew := after.TotalAlloc - before.TotalAlloc; grew > MaxRecordData/4 {
		t.Errorf("refusing a %d-byte list allocated %d bytes", len(list), grew)
	}
}

// FuzzFrame: for arbitrary bytes neither the block nor the record decoder
// panics, every refusal is ErrCorrupt, the streaming and in-memory block
// readers agree, and whatever decodes re-encodes to exactly the bytes
// consumed — both encodings are canonical.
func FuzzFrame(f *testing.F) {
	frames, links := testFrames(3)
	list := AppendRecords(nil, frames, links)
	f.Add(AppendBlock(nil, list))
	f.Add(AppendBlock(AppendBlock(nil, list), AppendRecords(nil, nil, nil)))
	f.Add(list)
	f.Add(AppendBlock(nil, list)[:20])
	f.Add([]byte{})
	f.Add(bytes.Repeat([]byte{0xff}, 24))

	f.Fuzz(func(t *testing.T, b []byte) {
		payload, sum, rest, err := Next(b, MaxBlock)
		var scratch []byte
		streamed, serr := ReadBlock(bytes.NewReader(b), MaxBlock, &scratch)
		if err == nil {
			err = Check(payload, sum)
		}
		if err != nil {
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("block error %v is not ErrCorrupt", err)
			}
			if serr == nil {
				t.Fatal("ReadBlock accepted what Next+Check refused")
			}
		} else {
			if serr != nil || !bytes.Equal(streamed, payload) {
				t.Fatalf("ReadBlock disagrees: %v", serr)
			}
			if got := AppendBlock(nil, payload); !bytes.Equal(got, b[:len(b)-len(rest)]) {
				t.Fatal("block re-encode differs from the consumed prefix")
			}
			b = payload // a valid block: try its payload as a record list too
		}
		frames, links, err := DecodeRecords(b)
		if err != nil {
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("record error %v is not ErrCorrupt", err)
			}
			return
		}
		if got := AppendRecords(nil, frames, links); !bytes.Equal(got, b) {
			t.Fatal("record list re-encode differs")
		}
	})
}
