package h2

import (
	"bytes"
	"fmt"
	"slices"
	"testing"
)

// FuzzFrameReader feeds arbitrary transport bytes through the
// incremental frame decoder. The reader faces peer-controlled input, so
// the invariant is the surfaced-error contract: malformed wire bytes
// produce a ConnError from Next, never a panic, and every successful
// Next makes progress (consumes at least a frame header) so a feed of N
// bytes can never decode more than N/frameHeaderLen+1 frames.
//
// The target is differential. Each input is decoded three times at the
// same split point: as two adjacent subslices of one array, which Feed
// merges into one chunk; as two exact-capacity copies, which stay
// separate so payloads spanning them go through the scratch reassembly
// path; and as two copies where the first has spare capacity holding
// the complement of the second, which must not merge either. All three
// must yield the same frames and the same error.
//
// The corpus seeds are real encodings produced by AppendFrame — every
// frame type the codec emits, alone and concatenated — so mutations
// start from wire-valid shapes and explore the boundaries (truncated
// headers, oversized lengths, bogus types, flag/padding combinations).
func FuzzFrameReader(f *testing.F) {
	frames := []Frame{
		&DataFrame{StreamID: 1, Data: []byte("hello fuzz"), EndStream: true},
		&HeadersFrame{StreamID: 5, Block: []byte{0x82, 0x86, 0x84}, EndHeaders: true,
			HasPriority: true, Priority: PriorityParam{ParentID: 3, Exclusive: true, Weight: 219}},
		&PriorityFrame{StreamID: 9, Priority: PriorityParam{ParentID: 7, Weight: 15}},
		&RSTStreamFrame{StreamID: 2, Code: ErrCodeRefusedStream},
		&SettingsFrame{Params: []Setting{{SettingEnablePush, 0}, {SettingInitialWindowSize, 1 << 20}}},
		&SettingsFrame{Ack: true},
		&PushPromiseFrame{StreamID: 1, PromisedID: 2, Block: []byte{0x82, 0x84}, EndHeaders: true},
		&PingFrame{Data: [8]byte{1, 2, 3, 4, 5, 6, 7, 8}},
		&GoAwayFrame{LastStreamID: 9, Code: ErrCodeProtocol, Debug: []byte("bye")},
		&WindowUpdateFrame{StreamID: 3, Increment: 65535},
		&ContinuationFrame{StreamID: 5, Block: []byte{0x01, 0x02}, EndHeaders: true},
	}
	var all []byte
	for _, fr := range frames {
		f.Add(AppendFrame(nil, fr))
		all = AppendFrame(all, fr)
	}
	f.Add(all)
	f.Add(all[:len(all)-3]) // truncated tail frame
	f.Add([]byte{0xff, 0xff, 0xff, 0x00, 0x00, 0x00, 0x00, 0x00, 0x01})

	f.Fuzz(func(t *testing.T, data []byte) {
		// Split at a data-derived point so payloads regularly span the
		// two feeds. The last byte picks it: the first is a length byte,
		// which is almost always 0 in a well-formed frame.
		split := 0
		if len(data) > 1 {
			split = int(data[len(data)-1]) % len(data)
		}
		a, b := data[:split], data[split:]
		merged := decodeAll(t, a, b)
		capped := func(p []byte) []byte { c := bytes.Clone(p); return c[:len(c):len(c)] }
		copied := decodeAll(t, capped(a), capped(b))
		if !slices.Equal(merged, copied) {
			t.Fatalf("adjacent and copied feeds decode differently:\n merged %q\n copied %q", merged, copied)
		}
		poisoned := make([]byte, len(a)+len(b))
		copy(poisoned, a)
		for i, c := range b {
			poisoned[len(a)+i] = ^c
		}
		if spare := decodeAll(t, poisoned[:len(a)], capped(b)); !slices.Equal(merged, spare) {
			t.Fatalf("adjacent and spare-capacity feeds decode differently:\n merged %q\n spare  %q", merged, spare)
		}
	})
}

// decodeAll feeds a and b to a fresh reader and returns one record per
// decoded frame (its re-encoding, plus the padding length for DATA)
// followed by the error Next surfaced, if any.
func decodeAll(t *testing.T, a, b []byte) []string {
	var r FrameReader
	r.Feed(a)
	r.Feed(b)
	maxFrames := (len(a)+len(b))/frameHeaderLen + 1
	var out []string
	for i := 0; ; i++ {
		fr, err := r.Next()
		if err != nil {
			return append(out, err.Error()) // surfaced error is the contract; panics are the bug
		}
		if fr == nil {
			return out
		}
		if i > maxFrames {
			t.Fatalf("decoded more than %d frames from %d bytes: no progress", maxFrames, len(a)+len(b))
		}
		rec := string(AppendFrame(nil, fr))
		if df, ok := fr.(*DataFrame); ok {
			rec += fmt.Sprintf(" pad=%d", df.padLen)
		}
		out = append(out, rec)
	}
}
