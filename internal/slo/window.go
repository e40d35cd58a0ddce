package slo

import "repro/internal/digest"

// ring is a rolling event-time window of quantile sketches: the window is
// chopped into fixed-width buckets laid out circularly, each holding one
// digest.Sketch. Adding an observation lands it in its event-time bucket
// (recycling the slot if it last held an older epoch); reading merges the
// buckets that overlap (now-window, now]. The oldest overlapping bucket
// is included whole, so the effective window is up to one bucket width
// longer than nominal — the usual staircase approximation.
type ring struct {
	windowMS int64
	widthMS  int64
	buckets  []ringBucket
}

type ringBucket struct {
	startMS int64 // aligned epoch start; 0 = never used
	sk      *digest.Sketch
}

// ringBuckets is the window subdivision: finer buckets track recovery
// faster at the cost of more sketches.
const ringBuckets = 12

// minBucketMS bounds the subdivision below: sub-second buckets buy
// nothing for delays mined from second-resolution logs.
const minBucketMS = int64(1000)

func newRing(windowMS int64) *ring {
	w := windowMS / ringBuckets
	if w < minBucketMS {
		w = minBucketMS
	}
	// Cover at least the nominal window even after rounding.
	n := int(windowMS/w) + 1
	return &ring{windowMS: windowMS, widthMS: w, buckets: make([]ringBucket, n)}
}

// add lands one observation in its event-time bucket. app, when
// non-empty, is offered to the bucket sketch's exemplar reservoir so
// the merged window can name its offenders at fire time.
func (r *ring) add(v float64, atMS int64, app string) {
	if atMS <= 0 {
		return
	}
	start := atMS - atMS%r.widthMS
	i := int(start/r.widthMS) % len(r.buckets)
	b := &r.buckets[i]
	if b.startMS != start {
		if b.sk == nil {
			b.sk = digest.New(digest.DefaultAlpha)
		} else {
			b.sk.Reset()
		}
		b.startMS = start
	}
	if app != "" {
		b.sk.AddExemplar(v, app, atMS)
	} else {
		b.sk.Add(v)
	}
}

// merged folds every bucket overlapping (nowMS-windowMS, nowMS] into one
// sketch.
func (r *ring) merged(nowMS int64) *digest.Sketch {
	out := digest.New(digest.DefaultAlpha)
	lo := nowMS - r.windowMS
	for i := range r.buckets {
		b := &r.buckets[i]
		if b.sk == nil || b.startMS == 0 {
			continue
		}
		if b.startMS+r.widthMS > lo && b.startMS <= nowMS {
			out.Merge(b.sk) // every sketch is at DefaultAlpha
		}
	}
	return out
}
