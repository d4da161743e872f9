package pipeline

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"time"
)

func TestForEachRunsAll(t *testing.T) {
	for _, workers := range []int{1, 2, 4, 16} {
		var hits [100]int32
		err := ForEach(context.Background(), workers, len(hits), func(_ context.Context, i int) error {
			atomic.AddInt32(&hits[i], 1)
			return nil
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i, h := range hits {
			if h != 1 {
				t.Fatalf("workers=%d: item %d ran %d times", workers, i, h)
			}
		}
	}
}

func TestForEachPropagatesFirstError(t *testing.T) {
	boom := errors.New("boom")
	for _, workers := range []int{1, 2, 8} {
		var ran int32
		// A pool that never cancels fails the assertion below instead of
		// hanging: the held items give up after giveUp closes.
		giveUp := make(chan struct{})
		timer := time.AfterFunc(5*time.Second, func() { close(giveUp) })
		err := ForEach(context.Background(), workers, 1000, func(ctx context.Context, i int) error {
			atomic.AddInt32(&ran, 1)
			if i == 3 {
				return fmt.Errorf("item %d: %w", i, boom)
			}
			// Items after the failing one hold their worker until the
			// failure cancels the pool, so no worker can drain all 1000
			// items before it lands. (Item 3 is handed out before any of
			// them, so this cannot deadlock.)
			if i > 3 {
				select {
				case <-ctx.Done():
				case <-giveUp:
				}
			}
			return nil
		})
		timer.Stop()
		if !errors.Is(err, boom) {
			t.Fatalf("workers=%d: err = %v, want wrapped boom", workers, err)
		}
		if n := atomic.LoadInt32(&ran); n == 1000 {
			t.Errorf("workers=%d: pool did not stop after the failure", workers)
		}
	}
}

func TestForEachLowestIndexErrorWins(t *testing.T) {
	// Both items fail; the slower, lower-index failure must be reported.
	errLow := errors.New("low")
	errHigh := errors.New("high")
	err := ForEach(context.Background(), 2, 2, func(_ context.Context, i int) error {
		if i == 0 {
			time.Sleep(20 * time.Millisecond)
			return errLow
		}
		return errHigh
	})
	if !errors.Is(err, errLow) {
		t.Fatalf("err = %v, want the lowest-index error", err)
	}
}

func TestForEachHonorsCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var ran int32
	done := make(chan error, 1)
	go func() {
		done <- ForEach(ctx, 4, 1<<30, func(c context.Context, i int) error {
			atomic.AddInt32(&ran, 1)
			select {
			case <-c.Done():
			case <-time.After(time.Millisecond):
			}
			return nil
		})
	}()
	time.Sleep(10 * time.Millisecond)
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("ForEach did not return after cancellation")
	}
	if atomic.LoadInt32(&ran) == 1<<30 {
		t.Error("cancellation did not stop the pool")
	}
}

func TestForEachEmpty(t *testing.T) {
	if err := ForEach(context.Background(), 4, 0, func(context.Context, int) error {
		t.Error("fn called for empty range")
		return nil
	}); err != nil {
		t.Fatal(err)
	}
}
