package h2

import "testing"

// TestFrameReaderAllocBudget pins the zero-copy receive path: once the
// reader's chunk list (and, for non-adjacent input, its scratch buffer)
// is warm, parsing a max-size DATA frame fed in MSS-sized chunks must
// not allocate. The adjacent variant feeds subslices of one wire array,
// as netem delivers them, so Feed merges them and the payload is a
// subslice of the wire; the capped-copy variant feeds each segment as
// its own exact-capacity copy, as real.go does, so the payload is
// assembled into the reused scratch buffer. A regression back to
// copy-per-Feed or alloc-per-frame fails this immediately.
func TestFrameReaderAllocBudget(t *testing.T) {
	payload := make([]byte, DefaultMaxFrameSize)
	wire := AppendFrame(nil, &DataFrame{StreamID: 1, Data: payload})
	var adjacent, copied [][]byte
	for off := 0; off < len(wire); off += 1460 {
		seg := wire[off:min(off+1460, len(wire))]
		adjacent = append(adjacent, seg)
		c := make([]byte, len(seg))
		copy(c, seg)
		copied = append(copied, c)
	}
	for _, tc := range []struct {
		name string
		segs [][]byte
	}{
		{"adjacent", adjacent},
		{"capped-copy", copied},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var r FrameReader
			parse := func() {
				frames := 0
				for _, seg := range tc.segs {
					r.Feed(seg)
					for {
						f, err := r.Next()
						if err != nil {
							t.Fatal(err)
						}
						if f == nil {
							break
						}
						frames++
					}
				}
				if frames != 1 {
					t.Fatalf("parsed %d frames, want 1", frames)
				}
			}
			// testing.AllocsPerRun runs parse once as warm-up, which
			// grows the chunk list and scratch buffer to steady state.
			if avg := testing.AllocsPerRun(50, parse); avg != 0 {
				t.Errorf("FrameReader parse allocates %.2f per 16KB DATA frame, budget 0", avg)
			}
		})
	}
}
