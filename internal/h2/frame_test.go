package h2

import (
	"bytes"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func roundTrip(t *testing.T, f Frame) Frame {
	t.Helper()
	var r FrameReader
	r.Feed(AppendFrame(nil, f))
	got, err := r.Next()
	if err != nil {
		t.Fatalf("decode %v: %v", f.Kind(), err)
	}
	if got == nil {
		t.Fatalf("decode %v: incomplete", f.Kind())
	}
	return got
}

func TestFrameRoundTrips(t *testing.T) {
	frames := []Frame{
		&DataFrame{StreamID: 1, Data: []byte("hello"), EndStream: true},
		&DataFrame{StreamID: 3, Data: []byte{}, EndStream: false},
		&HeadersFrame{StreamID: 5, Block: []byte{0x82}, EndHeaders: true, EndStream: true},
		&HeadersFrame{StreamID: 7, Block: []byte{0x82, 0x86}, EndHeaders: false,
			HasPriority: true, Priority: PriorityParam{ParentID: 5, Exclusive: true, Weight: 219}},
		&PriorityFrame{StreamID: 9, Priority: PriorityParam{ParentID: 7, Weight: 15}},
		&RSTStreamFrame{StreamID: 2, Code: ErrCodeCancel},
		&SettingsFrame{Params: []Setting{{SettingEnablePush, 0}, {SettingInitialWindowSize, 1 << 20}}},
		&SettingsFrame{Ack: true},
		&PushPromiseFrame{StreamID: 1, PromisedID: 2, Block: []byte{0x82, 0x84}, EndHeaders: true},
		&PingFrame{Data: [8]byte{1, 2, 3, 4, 5, 6, 7, 8}},
		&PingFrame{Ack: true},
		&GoAwayFrame{LastStreamID: 9, Code: ErrCodeProtocol, Debug: []byte("bye")},
		&WindowUpdateFrame{StreamID: 0, Increment: 65535},
		&WindowUpdateFrame{StreamID: 3, Increment: 1},
		&ContinuationFrame{StreamID: 5, Block: []byte{0x01, 0x02}, EndHeaders: true},
	}
	for _, f := range frames {
		got := roundTrip(t, f)
		if !reflect.DeepEqual(got, f) {
			t.Errorf("round trip %v:\n got %#v\nwant %#v", f.Kind(), got, f)
		}
	}
}

func TestFrameReaderIncrementalFeeding(t *testing.T) {
	var wire []byte
	want := []Frame{
		&DataFrame{StreamID: 1, Data: bytes.Repeat([]byte("x"), 1000)},
		&WindowUpdateFrame{StreamID: 1, Increment: 1000},
		&DataFrame{StreamID: 1, Data: []byte("end"), EndStream: true},
	}
	for _, f := range want {
		wire = AppendFrame(wire, f)
	}
	rng := rand.New(rand.NewSource(5))
	var r FrameReader
	// Frames are only valid until the next Next/Feed call (the reader
	// reuses its scratch buffer and DATA frame), so compare each one as
	// it is produced instead of collecting them.
	gotN := 0
	for len(wire) > 0 {
		n := rng.Intn(7) + 1
		if n > len(wire) {
			n = len(wire)
		}
		r.Feed(wire[:n])
		wire = wire[n:]
		for {
			f, err := r.Next()
			if err != nil {
				t.Fatal(err)
			}
			if f == nil {
				break
			}
			if gotN >= len(want) {
				t.Fatalf("got more than %d frames", len(want))
			}
			if !reflect.DeepEqual(f, want[gotN]) {
				t.Errorf("frame %d mismatch:\n got %#v\nwant %#v", gotN, f, want[gotN])
			}
			gotN++
		}
	}
	if gotN != len(want) {
		t.Fatalf("got %d frames, want %d", gotN, len(want))
	}
}

func TestFrameReaderRejectsOversize(t *testing.T) {
	var r FrameReader
	huge := &DataFrame{StreamID: 1, Data: make([]byte, DefaultMaxFrameSize+1)}
	r.Feed(AppendFrame(nil, huge))
	if _, err := r.Next(); err == nil {
		t.Fatal("oversize frame accepted")
	}
}

func TestFrameReaderSkipsUnknownTypes(t *testing.T) {
	var r FrameReader
	// Unknown type 0xfa frame followed by a PING.
	wire := appendFrameHeader(nil, 4, FrameType(0xfa), 0, 0)
	wire = append(wire, 1, 2, 3, 4)
	wire = AppendFrame(wire, &PingFrame{Data: [8]byte{9}})
	r.Feed(wire)
	f, err := r.Next()
	if err != nil {
		t.Fatal(err)
	}
	if f == nil || f.Kind() != FramePing {
		t.Fatalf("got %v, want PING after unknown frame", f)
	}
}

func TestParseErrors(t *testing.T) {
	cases := []struct {
		name string
		typ  FrameType
		fl   Flags
		id   uint32
		pay  []byte
	}{
		{"DATA on stream 0", FrameData, 0, 0, []byte("x")},
		{"HEADERS on stream 0", FrameHeaders, FlagEndHeaders, 0, []byte{0x82}},
		{"PRIORITY wrong len", FramePriority, 0, 1, []byte{1, 2, 3}},
		{"RST wrong len", FrameRSTStream, 0, 1, []byte{1}},
		{"SETTINGS on stream", FrameSettings, 0, 1, nil},
		{"SETTINGS bad len", FrameSettings, 0, 0, []byte{1, 2, 3}},
		{"SETTINGS ack payload", FrameSettings, FlagAck, 0, []byte{0, 0, 0, 0, 0, 0}},
		{"PING wrong len", FramePing, 0, 0, []byte{1}},
		{"GOAWAY short", FrameGoAway, 0, 0, []byte{1, 2, 3}},
		{"WINDOW_UPDATE zero", FrameWindowUpdate, 0, 1, []byte{0, 0, 0, 0}},
		{"PUSH_PROMISE short", FramePushPromise, FlagEndHeaders, 1, []byte{0, 0}},
		{"bad DATA padding", FrameData, FlagPadded, 1, []byte{5, 1, 2}},
	}
	for _, tc := range cases {
		if _, err := (&FrameReader{}).parseInto(tc.typ, tc.fl, tc.id, tc.pay); err == nil {
			t.Errorf("%s: no error", tc.name)
		}
	}
}

// TestFrameReaderFeedMerge pins Feed's adjacency rule: a chunk is merged
// into the previous one only when it starts where that one ends in the
// same array, and a payload that then lies within one chunk is returned
// as a capped subslice of the wire bytes.
func TestFrameReaderFeedMerge(t *testing.T) {
	payload := bytes.Repeat([]byte("0123456789"), 400)
	wire := AppendFrame(nil, &DataFrame{StreamID: 1, Data: payload, EndStream: true})
	const k = 1460 // split point inside the payload
	// gapped holds the wire bytes with one stray byte between the two
	// halves, so both feeds come from one array but are not adjacent.
	gapped := make([]byte, len(wire)+1)
	copy(gapped, wire[:k])
	copy(gapped[k+1:], wire[k:])
	// lead puts a PING before the DATA frame; the first feed ends inside
	// the DATA payload, so the PING is consumed from the head chunk
	// before the rest of the wire is merged onto it.
	lead := AppendFrame(AppendFrame(nil, &PingFrame{Data: [8]byte{7}}), &DataFrame{StreamID: 1, Data: payload, EndStream: true})
	dataAt := len(lead) - len(wire) + frameHeaderLen
	cases := []struct {
		name   string
		feeds  [][]byte
		src    []byte // the array the feeds are cut from
		at     int    // payload offset in src
		merged bool
	}{
		{"adjacent merges", [][]byte{wire[:k], wire[k:]}, wire, frameHeaderLen, true},
		{"gap does not merge", [][]byte{gapped[:k], gapped[k+1:]}, gapped, frameHeaderLen, false},
		{"no capacity does not merge", [][]byte{wire[:k:k], wire[k:]}, wire, frameHeaderLen, false},
		{"merge onto partly consumed head", [][]byte{lead[:dataAt+100], lead[dataAt+100:]}, lead, dataAt, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var r FrameReader
			var df *DataFrame
			retained := 0
			for _, b := range tc.feeds {
				r.Feed(b)
				retained = max(retained, len(r.chunks)-r.head)
				for {
					f, err := r.Next()
					if err != nil {
						t.Fatal(err)
					}
					if f == nil {
						break
					}
					if d, ok := f.(*DataFrame); ok {
						df = d
					}
				}
			}
			want := 2
			if tc.merged {
				want = 1
			}
			if retained != want {
				t.Errorf("%d chunks retained, want %d", retained, want)
			}
			if df == nil {
				t.Fatal("no DATA frame decoded")
			}
			if df.StreamID != 1 || !df.EndStream || !bytes.Equal(df.Data, payload) {
				t.Fatalf("decoded %d bytes on stream %d (end %v), want the %d-byte payload", len(df.Data), df.StreamID, df.EndStream, len(payload))
			}
			if cap(df.Data) != len(df.Data) {
				t.Errorf("payload cap %d != len %d: a consumer could append into the wire", cap(df.Data), len(df.Data))
			}
			if aliased := &df.Data[0] == &tc.src[tc.at]; aliased != tc.merged {
				t.Errorf("payload aliases the wire = %v, want %v", aliased, tc.merged)
			}
		})
	}
}

// Property: any DATA frame payload survives the wire intact, split across
// arbitrary chunk boundaries.
func TestPropertyDataFrameRoundTrip(t *testing.T) {
	f := func(data []byte, id uint32, end bool) bool {
		if len(data) > DefaultMaxFrameSize {
			data = data[:DefaultMaxFrameSize]
		}
		id = id%1000 + 1
		var r FrameReader
		r.Feed(AppendFrame(nil, &DataFrame{StreamID: id, Data: data, EndStream: end}))
		got, err := r.Next()
		if err != nil || got == nil {
			return false
		}
		df, ok := got.(*DataFrame)
		return ok && df.StreamID == id && df.EndStream == end && bytes.Equal(df.Data, data)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestPriorityParamRoundTrip(t *testing.T) {
	f := func(parent uint32, excl bool, weight uint8) bool {
		p := PriorityParam{ParentID: parent & 0x7fffffff, Exclusive: excl, Weight: weight}
		enc := appendPriorityParam(nil, p)
		return parsePriorityParam(enc) == p
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestSettingsValue(t *testing.T) {
	f := &SettingsFrame{Params: []Setting{
		{SettingEnablePush, 1},
		{SettingEnablePush, 0}, // last one wins
	}}
	v, ok := f.Value(SettingEnablePush)
	if !ok || v != 0 {
		t.Fatalf("Value = %d,%v want 0,true", v, ok)
	}
	if _, ok := f.Value(SettingMaxFrameSize); ok {
		t.Fatal("missing setting reported present")
	}
}
