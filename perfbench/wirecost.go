package main

import (
	"fmt"
	"time"

	"github.com/snapstab/snapstab/internal/core"
	"github.com/snapstab/snapstab/internal/wire"
)

// wireBudget is how long each of encoding and decoding is timed.
const wireBudget = 200 * time.Millisecond

// wireCost times wire.AppendBatch and wire.DecodeBatch on one batch of
// a workload's own message shape, and checks that the frame decodes to
// exactly the messages encoded.
func wireCost(msgs []core.Message) (encNs, decNs, bytesPerMsg float64, err error) {
	frame, err := wire.AppendBatch(nil, 0, msgs)
	if err != nil {
		return 0, 0, 0, fmt.Errorf("wire encode: %w", err)
	}
	_, got, err := wire.DecodeBatch(nil, frame)
	if err != nil {
		return 0, 0, 0, fmt.Errorf("wire decode: %w", err)
	}
	if len(got) != len(msgs) {
		return 0, 0, 0, fmt.Errorf("wire round trip: %d messages in, %d out", len(msgs), len(got))
	}
	for i := range msgs {
		if !got[i].Equal(msgs[i]) {
			return 0, 0, 0, fmt.Errorf("wire round trip: message %d decoded as %v", i, got[i])
		}
	}

	buf := frame[:0]
	batches := 0
	t0 := time.Now()
	for time.Since(t0) < wireBudget {
		for k := 0; k < 64; k++ {
			buf, err = wire.AppendBatch(buf[:0], 0, msgs)
			if err != nil {
				return 0, 0, 0, fmt.Errorf("wire encode: %w", err)
			}
		}
		batches += 64
	}
	encNs = float64(time.Since(t0)) / float64(batches*len(msgs))

	dst := make([]core.Message, 0, len(msgs))
	batches = 0
	t0 = time.Now()
	for time.Since(t0) < wireBudget {
		for k := 0; k < 64; k++ {
			_, dst, err = wire.DecodeBatch(dst[:0], frame)
			if err != nil {
				return 0, 0, 0, fmt.Errorf("wire decode: %w", err)
			}
		}
		batches += 64
	}
	decNs = float64(time.Since(t0)) / float64(batches*len(msgs))
	return encNs, decNs, float64(len(frame)) / float64(len(msgs)), nil
}
