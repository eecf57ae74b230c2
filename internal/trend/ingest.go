// Directory-tree ingest: classify and parse every observability
// artifact under a root — *.jsonl run-record logs (lenient, so a
// SIGINT-torn tail cannot poison the scan) and *.json simbench reports
// (any schema vintage; other JSON such as go-test event streams is
// counted and skipped, never fatal).

package trend

import (
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"fingers/internal/simreport"
	"fingers/internal/telemetry"
)

// Skip is one ingest rejection: a whole file (Line 0) or one JSONL
// line within it.
type Skip struct {
	File   string `json:"file"`
	Line   int    `json:"line,omitempty"`
	Reason string `json:"reason"`
}

// Corpus is everything a scan collected, before series grouping.
type Corpus struct {
	// Points holds run-record points grouped by series key.
	Points map[Key][]Point
	// Bench holds every simbench report cell, across all reports.
	Bench []BenchPoint
	// Records counts parsed run records; RunFiles and BenchFiles the
	// files they and the simbench reports (one per file) came from.
	Records              int
	RunFiles, BenchFiles int
	Skips                []Skip
	// mtime resolves a file's fallback timestamp; tests inject a fixed
	// clock so goldens do not depend on checkout times.
	mtime func(path string) (time.Time, error)
}

// ScanOptions tunes ingest. MTime overrides the file-modification-time
// fallback used for records and reports that predate the provenance
// header (nil uses os.Stat); tests inject a deterministic clock.
type ScanOptions struct {
	MTime func(path string) (time.Time, error)
}

func statMTime(path string) (time.Time, error) {
	fi, err := os.Stat(path)
	if err != nil {
		return time.Time{}, err
	}
	return fi.ModTime().UTC(), nil
}

// NewCorpus returns an empty corpus ready for AddRunLog/AddBenchFile.
func NewCorpus(opt ScanOptions) *Corpus {
	mt := opt.MTime
	if mt == nil {
		mt = statMTime
	}
	return &Corpus{Points: map[Key][]Point{}, mtime: mt}
}

// Scan walks root and ingests every *.jsonl as a run log and every
// *.json as a simbench report, recording (not failing on) files and
// lines that do not parse. Paths in the corpus are root-relative with
// forward slashes, so output is stable across machines.
func Scan(root string, opt ScanOptions) (*Corpus, error) {
	c := NewCorpus(opt)
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			// Artifacts never live under VCS metadata.
			if d.Name() == ".git" {
				return filepath.SkipDir
			}
			return nil
		}
		rel, rerr := filepath.Rel(root, path)
		if rerr != nil {
			rel = path
		}
		rel = filepath.ToSlash(rel)
		switch strings.ToLower(filepath.Ext(path)) {
		case ".jsonl":
			return c.AddRunLog(path, rel)
		case ".json":
			c.AddBenchFile(path, rel)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	c.sortPoints()
	return c, nil
}

// AddFiles ingests explicitly named files (the CLI's positional args),
// classifying by extension like Scan. Unlike Scan, an unreadable path
// is an error — the user asked for that exact file.
func (c *Corpus) AddFiles(paths []string) error {
	for _, p := range paths {
		switch strings.ToLower(filepath.Ext(p)) {
		case ".jsonl":
			if err := c.AddRunLog(p, filepath.ToSlash(p)); err != nil {
				return err
			}
		case ".json":
			if _, err := os.Stat(p); err != nil {
				return err
			}
			c.AddBenchFile(p, filepath.ToSlash(p))
		default:
			return fmt.Errorf("%s: unknown artifact type (want .jsonl run log or .json simbench report)", p)
		}
	}
	c.sortPoints()
	return nil
}

// AddRunLog ingests one JSONL run-record log leniently: intact records
// become points, corrupt or foreign lines become Skips.
func (c *Corpus) AddRunLog(path, rel string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	recs, skipped, err := telemetry.ReadRecordsLenient(f)
	if err != nil {
		c.Skips = append(c.Skips, Skip{File: rel, Reason: err.Error()})
		return nil
	}
	for _, s := range skipped {
		c.Skips = append(c.Skips, Skip{File: rel, Line: s.Line, Reason: s.Err})
	}
	if len(recs) == 0 && len(skipped) == 0 {
		return nil
	}
	c.RunFiles++
	fallback, ferr := c.mtime(path)
	for i, rec := range recs {
		p := Point{
			Tag:       rec.RunTag,
			GitRev:    rec.GitRev,
			Partial:   rec.Partial,
			Attempt:   rec.Attempt,
			ClientID:  rec.ClientID,
			Recovered: rec.RecoveredFromCrash,
			Cycles:    int64(rec.Cycles),
			Count:     rec.Count,
			WallNS:    rec.WallNS,
			MissRate:  rec.SharedMissRate,
			DRAMBytes: rec.DRAMBytes,
			Frac:      Frac(rec.Breakdown),
			File:      rel,
			Line:      i + 1,
		}
		if at, ok := rec.StartTime(); ok {
			p.At = at.UTC()
		} else if ferr == nil {
			p.At, p.FromMTime = fallback, true
		}
		if p.WallNS > 0 && p.Cycles > 0 {
			p.CyclesPerSec = float64(p.Cycles) / (float64(p.WallNS) / 1e9)
		}
		k := Key{
			Arch: rec.Arch, Graph: rec.Graph.Name, Pattern: rec.Pattern,
			Experiment: rec.Experiment, PEs: rec.PEs, IUs: rec.IUs,
			SharedCacheBytes: rec.SharedCacheBytes, SimShards: rec.SimShards,
		}
		c.Points[k] = append(c.Points[k], p)
		c.Records++
	}
	return nil
}

// AddBenchFile ingests one simbench report; a JSON file with a foreign
// schema (a `go test -json` event stream, say) is recorded as a
// skip, never an error. Reports without a started_at header fall back
// to file mtime — legacy committed reports stay usable, just coarsely
// ordered.
func (c *Corpus) AddBenchFile(path, rel string) {
	raw, err := os.ReadFile(path)
	if err != nil {
		c.Skips = append(c.Skips, Skip{File: rel, Reason: err.Error()})
		return
	}
	rep, err := simreport.Parse(raw)
	if err != nil {
		// Parse errors name only the cause; Skip.File carries the path.
		c.Skips = append(c.Skips, Skip{File: rel, Reason: err.Error()})
		return
	}
	c.BenchFiles++
	at, fromMTime := time.Time{}, false
	if t, ok := rep.StartTime(); ok {
		at = t.UTC()
	} else if t, err := c.mtime(path); err == nil {
		at, fromMTime = t, true
	}
	for _, cell := range rep.Cells {
		c.Bench = append(c.Bench, BenchPoint{
			At:           at,
			FromMTime:    fromMTime,
			Tag:          rep.RunTag,
			GitRev:       rep.GitRev,
			Runs:         rep.Runs,
			Graph:        cell.Graph,
			Pattern:      cell.Pattern,
			SerialCPS:    cell.SerialCyclesSec,
			SerialAllocs: cell.SerialAllocs,
			Shards:       rep.Shards,
			ShardSpeedup: cell.ShardedSpeedup,
			DenseRows:    cell.DenseRows,
			BitmapRows:   cell.BitmapRows,
			HybridBytes:  cell.HybridBytes,
			File:         rel,
		})
	}
}

// sortPoints fixes the time order of every collected series: by
// timestamp, then file, then line, so records without provenance (all
// sharing their file's mtime) keep their append order.
func (c *Corpus) sortPoints() {
	for _, pts := range c.Points {
		sort.SliceStable(pts, func(i, j int) bool {
			if !pts[i].At.Equal(pts[j].At) {
				return pts[i].At.Before(pts[j].At)
			}
			if pts[i].File != pts[j].File {
				return pts[i].File < pts[j].File
			}
			return pts[i].Line < pts[j].Line
		})
	}
	sort.SliceStable(c.Bench, func(i, j int) bool {
		if !c.Bench[i].At.Equal(c.Bench[j].At) {
			return c.Bench[i].At.Before(c.Bench[j].At)
		}
		return c.Bench[i].File < c.Bench[j].File
	})
}
