package core

// Segment-backed startup: OpenSegments maps a compiled segment set
// (internal/segment) and assembles the instance from it through the same
// assemble step Open takes after compiling in memory. WriteSegments is the
// build side magnet-build drives: it writes the image the instance serves
// from.
//
// The open path is O(1) in the corpus size: columns are zero-copy slices
// into mapped files, key strings and terms are read lazily, and the item
// universe stays on the dense-ID plane until first use.

import (
	"context"
	"sort"
	"time"

	"magnet/internal/obs"
	"magnet/internal/par"
	"magnet/internal/rdf"
	"magnet/internal/segment"
	"magnet/internal/vsm"
)

// OpenSegments opens the segment set in dir as a read-only Magnet.
// Options that were fixed at build time (IndexAllSubjects) are taken from
// the set's manifest, overriding opts. Callers must Close the instance to
// unmap the segment files.
func OpenSegments(dir string, opts Options) (*Magnet, error) {
	return OpenSegmentsContext(context.Background(), dir, opts)
}

// OpenSegmentsContext is OpenSegments with startup tracing (see
// OpenContext).
func OpenSegmentsContext(ctx context.Context, dir string, opts Options) (*Magnet, error) {
	start := time.Now()
	ctx, sp := obs.StartSpan(ctx, "startup.load")
	set, err := segment.OpenDir(dir)
	if err != nil {
		return nil, err
	}
	m := &Magnet{opts: opts, pool: par.New(opts.Parallelism), set: set}
	g, err := rdf.FromColumns(set.Data.Graph)
	if err == nil {
		err = m.assemble(ctx, g, &set.Data)
	}
	if err != nil {
		_ = set.Close()
		m.pool.Close()
		return nil, err
	}
	sp.End()
	startupLoadNS.Set(time.Since(start).Nanoseconds())
	return m, nil
}

// Segments returns the backing segment set (nil for in-memory instances).
func (m *Magnet) Segments() *segment.Set { return m.set }

// WriteSegments writes the instance's columnar image as a segment set at
// dir — the build side magnet-build drives. dataset and params are
// recorded in the manifest so readers can verify they opened what they
// expected. Works on any instance, including one that was itself opened
// from segments (a copy).
func (m *Magnet) WriteSegments(dir, dataset string, params map[string]int64) (segment.Manifest, error) {
	return segment.BuildDir(dir, segment.Data{
		Dataset:          dataset,
		Params:           params,
		IndexAllSubjects: m.opts.IndexAllSubjects,
		Items:            m.itemIDs.Slice(),
		Graph:            m.g.Columns(),
		Text:             m.text.Columns(),
		Vectors:          m.model.Store().Columns(),
		Ranges:           numericRanges(m.model.Ranges()),
	})
}

// numericRanges lists range statistics in key order, as segments store
// them.
func numericRanges(ranges map[string]vsm.Range) []segment.NumericRange {
	nr := make([]segment.NumericRange, 0, len(ranges))
	for k, r := range ranges {
		nr = append(nr, segment.NumericRange{Key: k, Min: r.Min, Max: r.Max, Count: r.Count})
	}
	sort.Slice(nr, func(i, j int) bool { return nr[i].Key < nr[j].Key })
	return nr
}
