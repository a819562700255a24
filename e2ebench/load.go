package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"specinfer/internal/core"
	"specinfer/internal/model"
	"specinfer/internal/workload"
)

// generateBody and streamLine mirror the /v1/generate wire format.
type generateBody struct {
	Prompt       []int `json:"prompt"`
	MaxNewTokens int   `json:"max_new_tokens"`
	Stream       bool  `json:"stream"`
}

type streamLine struct {
	Tokens []int `json:"tokens"`
	Done   bool  `json:"done"`
	Result *struct {
		Tokens       []int   `json:"tokens"`
		LatencyMs    float64 `json:"latency_ms"`
		QueueDelayMs float64 `json:"queue_delay_ms"`
		Error        string  `json:"error"`
	} `json:"result"`
}

// client sends one request and waits for its result. Each closed-loop
// client has its own, so no two requests share a connection.
type client func(req workload.Request) sample

// closedLoop runs one goroutine per client, each taking requests from
// reqs in order and sending the next as soon as the previous finished.
// Clients stop sending once the deadline has passed and at least minDone
// requests have finished. Requests in flight at the deadline run to
// completion and are kept.
func closedLoop(reqs []workload.Request, clients []client, deadline time.Time, minDone int) []sample {
	var next, finished atomic.Int64
	per := make([][]sample, len(clients))
	var wg sync.WaitGroup
	for c, send := range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				if !time.Now().Before(deadline) && finished.Load() >= int64(minDone) {
					return
				}
				i := int(next.Add(1)) - 1
				if i >= len(reqs) {
					return
				}
				s := send(reqs[i])
				s.req = i
				per[c] = append(per[c], s)
				finished.Add(1)
			}
		}()
	}
	wg.Wait()
	var out []sample
	for _, p := range per {
		out = append(out, p...)
	}
	return out
}

// httpClients returns n streaming HTTP clients of the server at url, each
// on its own keep-alive connection, and a func that closes them.
func httpClients(url string, n int) ([]client, func()) {
	var clients []client
	var trs []*http.Transport
	for i := 0; i < n; i++ {
		tr := &http.Transport{MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1, DisableCompression: true}
		trs = append(trs, tr)
		hc := &http.Client{Transport: tr}
		clients = append(clients, func(req workload.Request) sample { return httpGenerate(hc, url, req) })
	}
	return clients, func() {
		for _, tr := range trs {
			tr.CloseIdleConnections()
		}
	}
}

// inProcess is a client that places requests with submit and reads their
// tokens and result on the calling goroutine.
func inProcess(submit submitFunc) client {
	return func(req workload.Request) sample {
		s := sample{due: time.Now()}
		s.sent = s.due
		toks, res, err := submit(context.Background(), req)
		s.submit = time.Since(s.sent)
		if err != nil {
			s.failed, s.done = true, time.Now()
			return s
		}
		receive(&s, toks, res)
		return s
	}
}

// httpGenerate sends one streaming generate request and records when
// each chunk of tokens arrived. Any transport error, non-200 status,
// result error, or disagreement between the streamed tokens and the
// final result marks the sample failed.
func httpGenerate(client *http.Client, url string, req workload.Request) sample {
	body, err := json.Marshal(generateBody{Prompt: req.Prompt, MaxNewTokens: req.MaxNewTok, Stream: true})
	s := sample{due: time.Now()}
	s.sent = s.due
	if err != nil {
		s.failed, s.done = true, time.Now()
		return s
	}
	resp, err := client.Post(url+"/v1/generate", "application/json", bytes.NewReader(body))
	if err != nil {
		s.failed, s.done = true, time.Now()
		return s
	}
	defer func() { _ = resp.Body.Close() }()
	if resp.StatusCode != http.StatusOK {
		_, _ = io.Copy(io.Discard, resp.Body) // drained so the connection is reused
		s.failed, s.done = true, time.Now()
		return s
	}
	br := bufio.NewReader(resp.Body)
	sawResult := false
	for {
		line, rerr := br.ReadBytes('\n')
		now := time.Now()
		if len(bytes.TrimSpace(line)) > 0 {
			var l streamLine
			if err := json.Unmarshal(line, &l); err != nil {
				s.failed = true
			}
			if len(l.Tokens) > 0 {
				if s.tokens == 0 {
					s.first = now
				}
				s.last = now
				s.tokens += len(l.Tokens)
				s.chunks++
				s.output = append(s.output, l.Tokens...)
			}
			if l.Done && l.Result != nil {
				sawResult = true
				s.done = now
				s.engineLatency = time.Duration(l.Result.LatencyMs * float64(time.Millisecond))
				s.queueWait = time.Duration(l.Result.QueueDelayMs * float64(time.Millisecond))
				if l.Result.Error != "" || !equalTokens(l.Result.Tokens, s.output) {
					s.failed = true
				}
			}
		}
		if rerr != nil {
			if rerr != io.EOF {
				s.failed = true
			}
			break
		}
	}
	if !sawResult {
		s.failed, s.done = true, time.Now()
	}
	return s
}

// submitFunc places one request in process: core.Engine.Submit or
// router.Router.Submit.
type submitFunc func(ctx context.Context, req workload.Request) (<-chan model.Token, <-chan core.Result, error)

// openLoop submits reqs[i] at t0+due[i] whatever the state of earlier
// requests, from this one goroutine, and waits for all of them. A
// refused submission is a failed sample.
func openLoop(ctx context.Context, submit submitFunc, reqs []workload.Request, due []time.Duration, t0 time.Time) []sample {
	samples := make([]sample, len(reqs))
	var wg sync.WaitGroup
	for i, r := range reqs {
		s := &samples[i]
		s.req = i
		s.due = t0.Add(due[i])
		if d := time.Until(s.due); d > 0 {
			time.Sleep(d)
		}
		s.sent = time.Now()
		toks, res, err := submit(ctx, r)
		s.submit = time.Since(s.sent)
		if err != nil {
			s.failed, s.done = true, time.Now()
			continue
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			receive(s, toks, res)
		}()
	}
	wg.Wait()
	return samples
}

// bursts serves reqs in rounds until the deadline has passed and at
// least minDone requests have finished. A round is a burst of size
// requests due at once, then, once the burst has drained, trickle
// requests sent one at a time, each as soon as the previous finished. A
// round starts when the previous one is done, so a slower host stretches
// the rounds rather than piling the next burst onto an unfinished one.
func bursts(submit submitFunc, reqs []workload.Request, size, trickle int, deadline time.Time, minDone int) []sample {
	var out []sample
	send := inProcess(submit)
	for i := 0; i+size+trickle <= len(reqs); {
		if !time.Now().Before(deadline) && len(out) >= minDone {
			break
		}
		for _, s := range openLoop(context.Background(), submit, reqs[i:i+size], make([]time.Duration, size), time.Now()) {
			s.req += i
			out = append(out, s)
		}
		i += size
		for end := i + trickle; i < end; i++ {
			s := send(reqs[i])
			s.req = i
			out = append(out, s)
		}
	}
	return out
}

// receive records the token arrival times of one submitted request and
// its terminal result; an error or a result that disagrees with the
// streamed tokens marks the sample failed.
func receive(s *sample, toks <-chan model.Token, res <-chan core.Result) {
	for tok := range toks {
		now := time.Now()
		if s.tokens == 0 {
			s.first = now
		}
		s.last = now
		s.tokens++
		s.output = append(s.output, tok)
	}
	out := <-res
	s.done = time.Now()
	s.queueWait, s.engineLatency = out.QueueDelay, out.Latency
	if out.Err != nil || !equalTokens(out.Output, s.output) {
		s.failed = true
	}
}

func equalTokens(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
