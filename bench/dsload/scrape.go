package main

import (
	"bufio"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"time"
)

// scraper reads every node's /metrics every 250ms while the traced half
// runs: counters are taken as last minus first, the queue-depth gauge is
// averaged over every scrape.
type scraper struct {
	hc    *http.Client
	bases []string
	stop  chan struct{}
	done  chan struct{}

	first, last []map[string]float64
	depths      []float64
	err         error
}

func startScraper(bases []string) (*scraper, error) {
	s := &scraper{
		hc:    &http.Client{Timeout: 10 * time.Second, Transport: &http.Transport{}},
		bases: bases,
		stop:  make(chan struct{}),
		done:  make(chan struct{}),
	}
	var err error
	if s.first, err = s.scrape(); err != nil {
		return nil, err
	}
	go func() {
		defer close(s.done)
		tick := time.NewTicker(250 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-s.stop:
				return
			case <-tick.C:
				if _, err := s.scrape(); err != nil && s.err == nil {
					s.err = err
				}
			}
		}
	}()
	return s, nil
}

// finish stops the periodic scrapes and takes the closing one.
func (s *scraper) finish() error {
	close(s.stop)
	<-s.done
	if s.err != nil {
		return s.err
	}
	var err error
	s.last, err = s.scrape()
	s.hc.CloseIdleConnections()
	return err
}

func (s *scraper) scrape() ([]map[string]float64, error) {
	out := make([]map[string]float64, len(s.bases))
	for i, base := range s.bases {
		m, err := s.scrapeOne(base)
		if err != nil {
			return nil, err
		}
		out[i] = m
		s.depths = append(s.depths, m["dsserve_queue_depth"])
	}
	return out, nil
}

// scrapeOne parses the exposition text, summing each metric over its
// label sets.
func (s *scraper) scrapeOne(base string) (map[string]float64, error) {
	resp, err := s.hc.Get(base + "/metrics")
	if err != nil {
		return nil, fmt.Errorf("scrape %s: %w", base, err)
	}
	defer resp.Body.Close()
	m := make(map[string]float64)
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		f := strings.Fields(line)
		name := f[0]
		if i := strings.IndexByte(name, '{'); i >= 0 {
			name = name[:i]
		}
		v, err := strconv.ParseFloat(f[len(f)-1], 64)
		if err != nil {
			continue // a label value with spaces; none of the counters read here
		}
		m[name] += v
	}
	return m, sc.Err()
}

// delta sums a counter's growth over every node; perNode lists it by node.
func (s *scraper) delta(name string) (total float64, perNode []float64) {
	for i := range s.first {
		d := s.last[i][name] - s.first[i][name]
		total += d
		perNode = append(perNode, d)
	}
	return total, perNode
}
