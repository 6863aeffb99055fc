// Package e2sf implements the Event2Sparse Frame converter (paper
// Sec. 4.1). It transforms a raw AER event stream directly into
// two-channel sparse frames, one per event bin, without materializing
// the dense intermediate event frames that the baseline pipelines
// build:
//
//	biS = (Tend - Tstart) / nB            (bin duration)
//	EBk = floor((tk - Tstart) / biS)      (bin index of event k)
//
// Positive and negative polarities are accumulated separately per
// pixel within each bin, and each bin becomes a sparse COO-style frame
// (row indices, column indices, polarity channels), so downstream
// compute is proportional to the number of generated events.
//
// Fused is the package's one converter: it serves both the offline
// pipeline and the serving hot path, with time framing (bins grouped
// into SNN timesteps, Fig. 2) and count framing.
package e2sf

import "fmt"

// Config controls a conversion.
type Config struct {
	Width, Height int
	// NumBins is nB in Eq. 1: the number of event bins between Tstart
	// and Tend, i.e. the temporal resolution of the representation.
	NumBins int
}

// validate checks the geometry and bin count.
func (cfg Config) validate() error {
	if cfg.Width <= 0 || cfg.Height <= 0 {
		return fmt.Errorf("e2sf: invalid geometry %dx%d", cfg.Width, cfg.Height)
	}
	if cfg.NumBins <= 0 {
		return fmt.Errorf("e2sf: NumBins must be positive, got %d", cfg.NumBins)
	}
	return nil
}
