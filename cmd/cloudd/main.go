// Command cloudd serves the simulated cloud control plane over HTTP, so
// mlcd (and anything else speaking the cloudapi protocol) can drive it as
// a remote provider:
//
//	cloudd -addr :8080 -boot 2m &
//	mlcd -cloud http://localhost:8080 -job resnet-cifar10 -budget 100
package main

import (
	"flag"
	"fmt"
	"log"
	"net/http"
	"time"

	"mlcd/internal/chaos"
	"mlcd/internal/cloud"
	"mlcd/internal/cloudapi"
)

func main() {
	var (
		addr     = flag.String("addr", ":8080", "listen address")
		boot     = flag.Duration("boot", 2*time.Minute, "cluster boot latency (virtual)")
		cpuQuota = flag.Int("cpu-quota", cloud.DefaultQuota.MaxCPUNodes, "max concurrent CPU nodes")
		gpuQuota = flag.Int("gpu-quota", cloud.DefaultQuota.MaxGPUNodes, "max concurrent GPU nodes")
		failRate = flag.Float64("fail-rate", 0, "transient launch-failure injection rate")
		failSeed = flag.Int64("fail-seed", 1, "failure injection seed")
	)
	flag.Parse()

	var provider cloud.Provider = cloud.NewSimProvider(cloud.Quota{MaxCPUNodes: *cpuQuota, MaxGPUNodes: *gpuQuota}, *boot)
	if *failRate > 0 {
		// One chaos launch_error fault: a seeded draw per Launch, and a
		// refused launch burns the fault's default 30s of control-plane
		// time.
		provider = chaos.Wrap(provider, chaos.Plan{
			Name:   "fail-rate",
			Faults: []chaos.Fault{{Kind: chaos.KindLaunchError, Rate: *failRate}},
		}, *failSeed, nil)
	}
	handler := cloudapi.NewServer(provider, cloud.DefaultCatalog())
	fmt.Printf("cloudd: simulated control plane on %s (boot %v, quota %d CPU / %d GPU nodes)\n",
		*addr, *boot, *cpuQuota, *gpuQuota)
	log.Fatal(http.ListenAndServe(*addr, handler))
}
