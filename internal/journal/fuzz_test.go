package journal

import (
	"bytes"
	"encoding/json"
	"hash/crc32"
	"testing"
)

// FuzzReplayJournal feeds arbitrary segment bytes to the lenient
// replayer alongside the invariants the service layer depends on: no
// panic, every returned record has a positive unique sequence number,
// and an intact valid line embedded in garbage always survives.
func FuzzReplayJournal(f *testing.F) {
	// Seed with the damage shapes the chaos suite cares about: torn
	// tails, duplicates, CRC flips, interleaved garbage.
	valid := func(seq int64, job, event string) []byte {
		body, _ := json.Marshal(Record{Seq: seq, Job: job, Event: event,
			Spec: json.RawMessage(`{"arch":"fingers","graph":"As","pattern":"tc"}`)})
		line, _ := json.Marshal(envelope{CRC: crc32.Checksum(body, castagnoli), R: body})
		return append(line, '\n')
	}
	v1 := valid(1, "job-000001", EventSubmitted)
	v2 := valid(2, "job-000001", EventStarted)
	f.Add([]byte{})
	f.Add([]byte("\n\n\n"))
	f.Add(v1)
	f.Add(append(append([]byte{}, v1...), v2...))
	f.Add(append(append([]byte{}, v1...), v2[:len(v2)/2]...)) // torn tail
	f.Add(append(append([]byte{}, v1...), v1...))             // duplicate seq
	f.Add([]byte(`{"c":12345,"r":{"seq":1,"job":"x","event":"submitted"}}` + "\n"))
	f.Add([]byte(`{"schema":"fingers.run/v1","cycles":5}` + "\n"))
	f.Add(bytes.Replace(append([]byte{}, v1...), []byte("job-000001"), []byte("job-0000ZZ"), 1))

	f.Fuzz(func(t *testing.T, data []byte) {
		recs, skips := replaySegment(bytes.NewReader(data), "", map[int64]bool{})
		seen := map[int64]bool{}
		for _, r := range recs {
			if r.Seq <= 0 {
				t.Fatalf("replay returned non-positive seq %d", r.Seq)
			}
			if seen[r.Seq] {
				t.Fatalf("replay returned duplicate seq %d", r.Seq)
			}
			seen[r.Seq] = true
		}
		for _, s := range skips {
			if s.Reason == "" {
				t.Fatal("skip without reason")
			}
		}
		// Reduce must tolerate anything replay returns.
		_ = Reduce(recs)

		// Lenient invariant: append one known-good line after the fuzz
		// payload plus a newline; it must always be recovered (unless
		// its seq collides with a fuzzed record, in which case the
		// duplicate must be reported).
		probe := valid(999999, "job-probe", EventSubmitted)
		combined := append(append(append([]byte{}, data...), '\n'), probe...)
		recs2, skips2 := replaySegment(bytes.NewReader(combined), "", map[int64]bool{})
		found := false
		for _, r := range recs2 {
			if r.Job == "job-probe" {
				found = true
			}
		}
		if !found {
			dup := false
			for _, s := range skips2 {
				if s.Reason == "duplicate seq 999999" {
					dup = true
				}
			}
			if !dup {
				t.Fatalf("intact probe line lost: records %+v skips %+v", recs2, skips2)
			}
		}
	})
}
