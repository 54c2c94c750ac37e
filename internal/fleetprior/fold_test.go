package fleetprior

import (
	"bytes"
	"math/rand"
	"testing"

	"mlcd/internal/cloud"
	"mlcd/internal/profiler"
	"mlcd/internal/workload"
)

// refBuildFromCache is BuildFromCache as it was before the fold: one
// pass turning every entry into a sample, then one Build. The fold must
// publish exactly what it returns.
func refBuildFromCache(entries map[string]profiler.Result, resolve Resolver) *Prior {
	samples := make([]Sample, 0, len(entries))
	for key, res := range entries {
		jobKey, _, ok := ParseCacheKey(key)
		if !ok || res.Failed || res.Throughput <= 0 {
			continue
		}
		if res.Fidelity > 0 && res.Fidelity < 1 {
			continue
		}
		family, ok := resolve(jobKey)
		if !ok {
			continue
		}
		samples = append(samples, Sample{
			JobKey:     jobKey,
			Family:     family,
			Type:       res.Deployment.Type.Name,
			Nodes:      res.Deployment.Nodes,
			Throughput: res.Throughput,
		})
	}
	return Build(samples)
}

// foldEntry is one cache store of a fold test: the entry and whether a
// publish (Prior) follows it.
type foldEntry struct {
	key     string
	res     profiler.Result
	publish bool
}

// foldEntries decodes a byte stream into cache stores, four bytes each:
// the job (menu jobs of several families, an unknown job, a malformed
// key), the instance type, the node count (0 included, for Nodes < 1),
// and the outcome (full success, failure, OOM, sub-sampled) with its
// throughput and a batch boundary. A cache stores a key once, so a key
// drawn again is dropped; a small key space spreads each job key over
// many batches.
func foldEntries(data []byte) []foldEntry {
	jobs := []string{
		workload.ResNetCIFAR10.String(), workload.AlexNetCIFAR10.String(),
		workload.CharRNNText.String(), workload.BERTTF.String(),
		workload.ZeRO8BJob.String(), "ghost[tf/ps]",
	}
	types := cloud.DefaultCatalog().Types()[:4]
	var out []foldEntry
	seen := make(map[string]bool)
	for len(data) >= 4 {
		b := data[:4]
		data = data[4:]
		typ := types[int(b[1])%len(types)]
		nodes := int(b[2] % 6)
		key := ""
		if j := int(b[0]) % (len(jobs) + 1); j < len(jobs) {
			key = jobs[j] + "|" + cloud.Deployment{Type: typ, Nodes: nodes}.Key()
		} else {
			key = "malformed-key-without-a-pipe"
		}
		res := profiler.Result{
			Deployment: cloud.Deployment{Type: typ, Nodes: nodes},
			Throughput: 1 + float64(b[3]>>2),
		}
		switch b[3] & 3 {
		case 1:
			res.Failed = true
		case 2:
			res.Throughput = 0 // OOM
		case 3:
			res.Fidelity = 0.25
		}
		if !seen[key] {
			seen[key] = true
			out = append(out, foldEntry{key: key, res: res, publish: b[2]&0x80 != 0})
		}
	}
	return out
}

// checkFoldMatchesBuild stores the entries in a map standing in for the
// cache and folds them in as they are stored. At every publish, and at
// the end, the fold's prior must encode to the reference build over the
// map — every sample so far — byte for byte.
func checkFoldMatchesBuild(t *testing.T, stores []foldEntry) {
	t.Helper()
	resolve := MenuResolver(workload.All())
	all := make(map[string]profiler.Result)
	f := NewFold(resolve)
	check := func(at int) {
		want, err := refBuildFromCache(all, resolve).Encode()
		if err != nil {
			t.Fatal(err)
		}
		got, err := f.Prior().Encode()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("after %d stores the fold publishes\n%s\nbut Build over every sample gives\n%s", at, got, want)
		}
	}
	for i, s := range stores {
		all[s.key] = s.res
		f.Add(s.key, s.res)
		if s.publish {
			check(i + 1)
		}
	}
	check(len(stores))
	if got, want := mustEncode(t, BuildFromCache(all, resolve)), mustEncode(t, refBuildFromCache(all, resolve)); !bytes.Equal(got, want) {
		t.Fatalf("BuildFromCache\n%s\ndiffers from one Build over the same entries\n%s", got, want)
	}
}

func mustEncode(t *testing.T, p *Prior) []byte {
	t.Helper()
	b, err := p.Encode()
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestFoldMatchesBuild: for random store sequences split into random
// batches, the fold's prior after each batch is Build over every sample
// so far, and a publish with no new sample returns the same prior.
func TestFoldMatchesBuild(t *testing.T) {
	for seed := int64(1); seed <= 60; seed++ {
		rng := rand.New(rand.NewSource(seed))
		data := make([]byte, 4*(1+rng.Intn(150)))
		rng.Read(data)
		checkFoldMatchesBuild(t, foldEntries(data))
	}

	f := NewFold(MenuResolver(workload.All()))
	if got := mustEncode(t, f.Prior()); !bytes.Equal(got, mustEncode(t, Build(nil))) {
		t.Fatalf("an empty fold publishes %s, want Build(nil)", got)
	}
	key := workload.ResNetCIFAR10.String() + "|2×c5.4xlarge"
	res := profiler.Result{Deployment: cloud.Deployment{Type: cloud.DefaultCatalog().MustLookup("c5.4xlarge"), Nodes: 2}, Throughput: 10}
	f.Add(key, res)
	p := f.Prior()
	res.Throughput = 0 // an OOM teaches nothing
	f.Add(workload.ResNetCIFAR10.String()+"|3×c5.4xlarge", res)
	if f.Prior() != p {
		t.Fatal("a publish with no new sample must return the previous prior")
	}
	f.Add(workload.CharRNNText.String()+"|2×c5.4xlarge", profiler.Result{Deployment: res.Deployment, Throughput: 5})
	if q := f.Prior(); q == p || q.Samples != 2 || p.Samples != 1 || !q.HasFamily("cnn") || p.HasFamily("rnn") {
		t.Fatalf("a new family's sample: published %+v, earlier prior now %+v", q.Stats(), p.Stats())
	}
}

// FuzzFoldMatchesBuild is TestFoldMatchesBuild over fuzzer-chosen store
// sequences and batch splits.
func FuzzFoldMatchesBuild(f *testing.F) {
	f.Add([]byte{0, 0, 1, 40, 0, 0, 0x82, 41, 1, 1, 2, 80, 2, 2, 0x83, 5, 6, 1, 1, 44})
	f.Add([]byte{3, 1, 4, 200, 3, 1, 0x84, 201, 4, 2, 1, 100, 5, 0, 2, 17, 3, 1, 4, 3})
	f.Fuzz(func(t *testing.T, data []byte) {
		checkFoldMatchesBuild(t, foldEntries(data))
	})
}
