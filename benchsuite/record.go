package main

import (
	"context"
	"fmt"
	"io"
	"os"
	"runtime"
	"sync"
)

// recordDigests serves every pool entry of every workload (or only of the
// named one), checks it with the generator-knowledge checks and against a
// replay through the layers, and writes the digests under dir/digests.
func recordDigests(dir, only string, log io.Writer) error {
	if err := os.MkdirAll(dir+"/digests", 0o755); err != nil {
		return err
	}
	for _, w := range workloads {
		if only != "" && w.name != only {
			continue
		}
		svc, err := newService()
		if err != nil {
			return err
		}
		l, err := newLayers(context.Background(), svc.store, runtime.GOMAXPROCS(0))
		if err != nil {
			svc.close()
			return err
		}
		ds := make([]uint64, w.poolSize)
		errs := make([]error, w.poolSize)
		var wg sync.WaitGroup
		next := make(chan int)
		for k := 0; k < runtime.GOMAXPROCS(0); k++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := range next {
					ds[i], errs[i] = recordOne(svc, l, w, i)
				}
			}()
		}
		for i := 0; i < w.poolSize; i++ {
			next <- i
		}
		close(next)
		wg.Wait()
		svc.close()
		for i, err := range errs {
			if err != nil {
				return fmt.Errorf("%s pool entry %d: %w", w.name, i, err)
			}
		}
		if err := writeDigests(dir, w, ds); err != nil {
			return err
		}
		fmt.Fprintf(log, "benchsuite: recorded %d %s digests\n", len(ds), w.name)
	}
	return nil
}

func recordOne(svc *service, l *layers, w *workload, i int) (uint64, error) {
	r, err := w.entry(i)
	if err != nil {
		return 0, err
	}
	code, body := svc.call(r)
	if err := checkResponse(r, code, body); err != nil {
		return 0, err
	}
	direct, err := l.run(l.baseCtx(nil), r, i)
	if err != nil {
		return 0, fmt.Errorf("replay: %w", err)
	}
	d := digestOf(r, body)
	if d != digestOf(r, direct) {
		return 0, fmt.Errorf("served and replayed %s responses differ", r.endpoint)
	}
	return d, nil
}
