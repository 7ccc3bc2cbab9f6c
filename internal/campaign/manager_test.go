package campaign

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"negfsim/internal/core"
	"negfsim/internal/jobs"
)

// ladderStub is a backend over ladders whose point i sits at bias i. It
// answers every point with a fresh outcome once hook(i) returns (hook may
// be nil; a non-nil error fails the point) and records the start order,
// the seed each point received, the outcome each point returned, and the
// high-water mark of points in flight.
type ladderStub struct {
	hook func(i int) error

	mu             sync.Mutex
	order          []int
	got, sent      map[int]*PointOutcome
	inflight, high int
}

func newLadderStub(hook func(i int) error) *ladderStub {
	return &ladderStub{hook: hook, got: map[int]*PointOutcome{}, sent: map[int]*PointOutcome{}}
}

func (b *ladderStub) RunPoint(ctx context.Context, cfg core.RunConfig, prev *PointOutcome, onIter func(n int)) (*PointOutcome, error) {
	i := int(cfg.Bias)
	out := &PointOutcome{Iterations: 1, Converged: true, WarmStarted: prev != nil}
	b.mu.Lock()
	b.order = append(b.order, i)
	b.got[i], b.sent[i] = prev, out
	b.inflight++
	b.high = max(b.high, b.inflight)
	b.mu.Unlock()
	defer func() {
		b.mu.Lock()
		b.inflight--
		b.mu.Unlock()
	}()
	if b.hook != nil {
		if err := b.hook(i); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// stubLadder is an n-point I–V request at biases 0, 1, …, n−1.
func stubLadder(n int, warm bool) Request {
	req := Request{Kind: IV, Config: cntConfig(40), WarmStart: &warm}
	for i := 0; i < n; i++ {
		req.Biases = append(req.Biases, float64(i))
	}
	return req
}

// TestChainScheduler pins the ladder scheduler on a stub backend: never
// more than k = min(maxParallel, n) points in flight (and k reached),
// every chained point seeded with exactly its predecessor's outcome,
// chain heads and cold campaigns seeded with nothing, and k = 1 the
// sequential ladder.
func TestChainScheduler(t *testing.T) {
	for _, n := range []int{1, 2, 5, 9} {
		for _, maxParallel := range []int{1, 2, 4} {
			for _, warm := range []bool{true, false} {
				t.Run(fmt.Sprintf("n=%d/par=%d/warm=%t", n, maxParallel, warm), func(t *testing.T) {
					k := min(maxParallel, n)
					// The first k points wait (bounded) for each other, so a
					// scheduler that ran fewer than k at once shows as a low
					// high-water mark rather than a hang.
					var arrived sync.WaitGroup
					arrived.Add(k)
					done := make(chan struct{})
					go func() { arrived.Wait(); close(done) }()
					var mu sync.Mutex
					started := 0
					b := newLadderStub(func(i int) error {
						mu.Lock()
						first := started < k
						started++
						mu.Unlock()
						if first {
							arrived.Done()
							select {
							case <-done:
							case <-time.After(2 * time.Second):
							}
						}
						return nil
					})
					m := NewManager(b, maxParallel)
					defer m.Close(context.Background())
					c, err := m.Start(stubLadder(n, warm))
					if err != nil {
						t.Fatal(err)
					}
					if _, err := c.Wait(context.Background()); err != nil {
						t.Fatal(err)
					}
					if st := c.Status(); st.State != jobs.Succeeded {
						t.Fatalf("campaign finished %s: %s", st.State, st.Error)
					}
					if b.high != k {
						t.Errorf("high-water mark of points in flight = %d, want k = %d", b.high, k)
					}
					if len(b.order) != n {
						t.Fatalf("backend ran %d points, want %d", len(b.order), n)
					}
					for i := 0; i < n; i++ {
						head := chainHead(i, n, maxParallel)
						switch {
						case !warm || head:
							if b.got[i] != nil {
								t.Errorf("point %d (head %t, warm %t) received a seed", i, head, warm)
							}
						case b.got[i] != b.sent[i-1]:
							t.Errorf("point %d received %p, not its predecessor's outcome %p", i, b.got[i], b.sent[i-1])
						}
						if got := c.Status().Points[i].WarmStarted; got != (warm && !head) {
							t.Errorf("point %d warm_started = %t", i, got)
						}
					}
					if k == 1 {
						for i, p := range b.order {
							if p != i {
								t.Fatalf("k = 1 ran points in order %v, want the ladder order", b.order)
							}
						}
					}
				})
			}
		}
	}
}

// TestFailureStopsLadder pins the one failure rule of both modes: once a
// point fails no new point starts, the point already running elsewhere
// finishes, the pending ones are cancelled, and the campaign fails with
// the failure's message. Two chains over nine points: [0,4) and [4,9);
// point 2 fails while point 5 is in flight.
func TestFailureStopsLadder(t *testing.T) {
	for _, warm := range []bool{true, false} {
		t.Run(fmt.Sprintf("warm=%t", warm), func(t *testing.T) {
			// Point 5 finishes only once the campaign shows point 2 failed.
			running5, campaign := make(chan struct{}), make(chan *Campaign, 1)
			b := newLadderStub(func(i int) error {
				switch i {
				case 2:
					<-running5
					return errors.New("boom")
				case 5:
					close(running5)
					c := <-campaign
					for c.Status().Points[2].State != PointFailed {
						time.Sleep(time.Millisecond)
					}
				}
				return nil
			})
			m := NewManager(b, 2)
			defer m.Close(context.Background())
			c, err := m.Start(stubLadder(9, warm))
			if err != nil {
				t.Fatal(err)
			}
			campaign <- c
			if _, err := c.Wait(context.Background()); err != nil {
				t.Fatal(err)
			}
			st := c.Status()
			if st.State != jobs.Failed || !strings.Contains(st.Error, "point 2 (bias 2): boom") {
				t.Fatalf("campaign finished %s: %q, want failed at point 2", st.State, st.Error)
			}
			want := []PointState{PointDone, PointDone, PointFailed, PointCancelled,
				PointDone, PointDone, PointCancelled, PointCancelled, PointCancelled}
			for i, p := range st.Points {
				if p.State != want[i] {
					t.Errorf("point %d state %s, want %s", i, p.State, want[i])
				}
			}
			if len(b.order) != 5 {
				t.Errorf("backend started points %v; none may start after the failure", b.order)
			}
			if _, err := c.Artifact(); err == nil {
				t.Error("failed campaign served an artifact")
			}
		})
	}
}
