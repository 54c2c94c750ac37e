package mlcd

import (
	"io"
	"net/http"

	"mlcd/internal/baselines"
	"mlcd/internal/bo"
	"mlcd/internal/cloud"
	"mlcd/internal/cloudapi"
	"mlcd/internal/core"
	"mlcd/internal/gp"
	"mlcd/internal/mlcdapi"
	"mlcd/internal/mlcdsys"
	"mlcd/internal/models"
	"mlcd/internal/paleo"
	"mlcd/internal/profiler"
	"mlcd/internal/search"
	"mlcd/internal/sim"
	"mlcd/internal/trace"
	"mlcd/internal/workload"
)

// Cloud substrate types.
type (
	// InstanceType is one scale-up option (an EC2-like machine type).
	InstanceType = cloud.InstanceType
	// Catalog is an immutable set of instance types.
	Catalog = cloud.Catalog
	// Deployment is the paper's D(m, n): n nodes of type m.
	Deployment = cloud.Deployment
	// Space is the discrete deployment search space.
	Space = cloud.Space
	// SpaceLimits bounds per-kind node counts when enumerating a space.
	SpaceLimits = cloud.SpaceLimits
	// Provider is the cloud control-plane interface MLCD drives.
	Provider = cloud.Provider
	// Quota bounds concurrently running nodes.
	Quota = cloud.Quota
)

// Workload types.
type (
	// Arch classifies model architectures (CNN, RNN, Transformer).
	Arch = models.Arch
	// Model describes a trainable network (see the Models variable).
	Model = models.Model
	// Dataset is a training corpus.
	Dataset = models.Dataset
	// Job is a training task to be deployed.
	Job = workload.Job
	// Platform is the ML training framework.
	Platform = workload.Platform
	// Topology is the gradient-distribution scheme.
	Topology = workload.Topology
)

// Search types.
type (
	// Scenario is one of the paper's three deployment goals (§III-A).
	Scenario = search.Scenario
	// Constraints carries the user-specified deadline/budget.
	Constraints = search.Constraints
	// Searcher is a deployment-search strategy.
	Searcher = search.Searcher
	// Outcome is a search's full account: pick, probes, spend.
	Outcome = search.Outcome
	// Step is one profiling decision inside an Outcome.
	Step = search.Step
	// Observation pairs a deployment with measured throughput.
	Observation = search.Observation
	// HeterBOOptions configures the HeterBO searcher, including the
	// ablation switches benchmarked in bench_test.go.
	HeterBOOptions = core.Options
)

// Measurement types.
type (
	// Simulator is the distributed-training performance model standing
	// in for a real testbed.
	Simulator = sim.Simulator
	// SimConfig tunes the simulator's calibration constants.
	SimConfig = sim.Config
	// Profiler measures candidate deployments.
	Profiler = profiler.Profiler
	// ProfileResult is one probe's measurement and cost.
	ProfileResult = profiler.Result
)

// System types.
type (
	// System is a configured MLCD instance.
	System = mlcdsys.System
	// SystemConfig assembles a System.
	SystemConfig = mlcdsys.Config
	// Requirements is what an MLCD user states about a job.
	Requirements = mlcdsys.Requirements
	// Report is Deploy's account of a job's search + training.
	Report = mlcdsys.Report
)

// Rendering helpers.
type (
	// BreakdownRow is a profile/train cost-and-time table row.
	BreakdownRow = trace.BreakdownRow
)

// The paper's three scenarios (§III-A).
const (
	// FastestUnlimited: finish as fast as possible, unlimited budget.
	FastestUnlimited = search.FastestUnlimited
	// CheapestWithDeadline: finish before a deadline at the lowest cost.
	CheapestWithDeadline = search.CheapestWithDeadline
	// FastestWithBudget: finish as fast as possible within a budget.
	FastestWithBudget = search.FastestWithBudget
)

// Training platforms (§V-A).
const (
	TensorFlow = workload.TensorFlow
	MXNet      = workload.MXNet
	PyTorch    = workload.PyTorch
)

// Distribution topologies (§V-A).
const (
	ParameterServer = workload.ParameterServer
	RingAllReduce   = workload.RingAllReduce
)

// Model architecture classes.
const (
	CNNArch         = models.CNN
	RNNArch         = models.RNN
	TransformerArch = models.Transformer
)

// The model zoo (paper §V-A and Fig. 19).
var (
	AlexNet     = models.AlexNet
	ResNet      = models.ResNet
	InceptionV3 = models.InceptionV3
	CharRNN     = models.CharRNN
	BERT        = models.BERT
	ZeRO8B      = models.ZeRO8B
	ZeRO20B     = models.ZeRO20B
)

// Datasets.
var (
	CIFAR10    = models.CIFAR10
	ImageNet   = models.ImageNet
	TextCorpus = models.TextCorpus
	WikiBooks  = models.WikiBooks
)

// The evaluation workloads.
var (
	ResNetCIFAR10     = workload.ResNetCIFAR10
	AlexNetCIFAR10    = workload.AlexNetCIFAR10
	InceptionImageNet = workload.InceptionImageNet
	CharRNNText       = workload.CharRNNText
	BERTTF            = workload.BERTTF
	BERTMXNet         = workload.BERTMXNet
	ZeRO8BJob         = workload.ZeRO8BJob
	ZeRO20BJob        = workload.ZeRO20BJob
)

// DefaultCatalog returns the paper's EC2 instance families with 2019
// us-east-1 on-demand pricing.
func DefaultCatalog() *Catalog { return cloud.DefaultCatalog() }

// NewCatalog builds a catalog from explicit instance types.
func NewCatalog(types []InstanceType) (*Catalog, error) { return cloud.NewCatalog(types) }

// NewSpace enumerates every (type, 1..limit) deployment of a catalog.
func NewSpace(c *Catalog, lim SpaceLimits) *Space { return cloud.NewSpace(c, lim) }

// DefaultLimits is the paper's experiment scale: up to 100 CPU nodes and
// 50 GPU nodes per deployment.
var DefaultLimits = cloud.DefaultLimits

// NewDeployment pairs an instance type with a node count.
func NewDeployment(t InstanceType, nodes int) Deployment { return cloud.NewDeployment(t, nodes) }

// NewHeterBO returns the paper's search method.
func NewHeterBO(opts HeterBOOptions) Searcher { return core.New(opts) }

// NewConvBO returns conventional GP-EI Bayesian optimization.
func NewConvBO(seed int64) Searcher { return baselines.NewConvBO(seed) }

// NewImprovedBO returns the budget-aware BO_imprd baseline (§V-D).
func NewImprovedBO(seed int64) Searcher { return baselines.NewImprovedBO(seed) }

// NewCherryPick returns the CherryPick baseline.
func NewCherryPick(seed int64) Searcher { return baselines.NewCherryPick(seed) }

// NewImprovedCherryPick returns the budget-aware CP_imprd baseline (§V-D).
func NewImprovedCherryPick(seed int64) Searcher { return baselines.NewImprovedCherryPick(seed) }

// NewRandomSearch returns a k-probe random searcher (Fig. 12).
func NewRandomSearch(k int, seed int64) Searcher { return baselines.NewRandom(k, seed) }

// NewExhaustive returns an exhaustive sweep visiting every stride-th
// candidate (Fig. 2).
func NewExhaustive(stride int) Searcher { return baselines.NewExhaustive(stride) }

// NewParallelExhaustive returns an exhaustive sweep that runs up to
// concurrency probe clusters at once: same bill, shorter wall-clock.
func NewParallelExhaustive(stride, concurrency int) Searcher {
	return baselines.NewParallelExhaustive(stride, concurrency)
}

// NewParetoSearch returns the Pareto-optimization baseline from the
// paper's related work (§II): stratified sampling plus a Pareto front
// over (time, cost).
func NewParetoSearch(samplesPerType int) Searcher { return baselines.NewPareto(samplesPerType) }

// NewPaleo returns the analytical-modeling baseline (Fig. 13).
func NewPaleo() Searcher { return paleo.New() }

// NewSimulator returns the testbed performance simulator with default
// calibration and the given noise seed.
func NewSimulator(seed int64) *Simulator { return sim.New(seed) }

// NewSimulatorWithConfig returns a simulator with explicit constants.
func NewSimulatorWithConfig(cfg SimConfig, seed int64) *Simulator {
	return sim.NewWithConfig(cfg, seed)
}

// DefaultSimConfig returns the calibrated simulator constants.
func DefaultSimConfig() SimConfig { return sim.DefaultConfig() }

// NewSimProfiler profiles deployments against a simulator using the
// paper's probe cost model (10 min + 1 min per 3 extra nodes).
func NewSimProfiler(s *Simulator) Profiler { return profiler.NewSimProfiler(s) }

// NewSystem wires catalog, simulator, profiler, provider, and searcher
// into the paper's MLCD pipeline.
func NewSystem(cfg SystemConfig) *System { return mlcdsys.New(cfg) }

// NewCloudServer wraps a provider and catalog in the cloudapi HTTP
// handler (see cmd/cloudd).
func NewCloudServer(p Provider, cat *Catalog) http.Handler { return cloudapi.NewServer(p, cat) }

// MLCDServerConfig tunes the MLaaS service's scheduler: worker-pool
// size, queue bound, submission menu, and crash-safe journal path.
type MLCDServerConfig = mlcdapi.ServerConfig

// NewMLCDServer exposes an MLCD system as the MLaaS job-submission HTTP
// service (see cmd/mlcdd) with a single-worker scheduler. jobs is the
// submission menu (nil = all predefined workloads). Call Close on the
// returned server to drain its workers.
func NewMLCDServer(sys *System, jobs map[string]Job) *mlcdapi.Server {
	return mlcdapi.NewServer(sys, jobs)
}

// NewMLCDServerWithConfig is NewMLCDServer with explicit scheduler
// configuration: concurrent search workers, bounded admission queue,
// and an optional crash-safe journal that lets a restarted service
// resume unfinished jobs without re-profiling.
func NewMLCDServerWithConfig(sys *System, cfg MLCDServerConfig) (*mlcdapi.Server, error) {
	return mlcdapi.NewServerWithConfig(sys, cfg)
}

// NewCloudClient returns a Provider that drives a remote cloudapi control
// plane at the given base URL.
func NewCloudClient(base string, cat *Catalog) Provider { return cloudapi.NewClient(base, cat) }

// SaveObservations persists a search's measured observations as JSON for
// later warm-starting (HeterBOOptions.WarmStart).
func SaveObservations(w io.Writer, jobName string, obs []Observation) error {
	return search.SaveObservations(w, jobName, obs)
}

// LoadObservations reads observations saved by SaveObservations,
// re-resolving instance types against the catalog, and returns the job
// name they were measured for.
func LoadObservations(r io.Reader, cat *Catalog) (jobName string, obs []Observation, err error) {
	return search.LoadObservations(r, cat)
}

// ObservationsFromOutcome extracts persistable observations from a
// finished search.
func ObservationsFromOutcome(o Outcome) []Observation {
	return search.ObservationsFromOutcome(o)
}

// RenderSteps renders a search outcome's probe-by-probe table.
func RenderSteps(o Outcome) string { return trace.StepTable(o) }

// RenderSearchProcess renders the Figs. 15–17 per-type view of a search.
func RenderSearchProcess(o Outcome) string { return trace.SearchProcess(o) }

// RenderBreakdown renders profile/train breakdown rows as a table.
func RenderBreakdown(rows []BreakdownRow, constraint string) string {
	return trace.BreakdownTable(rows, constraint)
}

// Kernel is a Gaussian-process covariance function. Matérn 5/2
// (NewMatern52Kernel) and squared-exponential (NewSEKernel) are the
// whole family: a Kernel can wrap one of them by embedding, but no other
// type implements the interface.
type Kernel = gp.Kernel

// Acquisition scores search candidates; see NewEI, NewUCB, NewPOI.
type Acquisition = bo.Acquisition

// NewEI returns Expected Improvement (the paper's base acquisition,
// Eq. 4) with optional exploration margin xi.
func NewEI(xi float64) Acquisition { return bo.EI{Xi: xi} }

// NewUCB returns the Upper Confidence Bound acquisition μ + β·σ.
func NewUCB(beta float64) Acquisition { return bo.UCB{Beta: beta} }

// NewPOI returns the Probability of Improvement acquisition.
func NewPOI(xi float64) Acquisition { return bo.POI{Xi: xi} }

// NewMatern52Kernel returns the default surrogate kernel (Matérn ν=5/2
// with ARD lengthscales) over dim-dimensional features.
func NewMatern52Kernel(dim int) Kernel { return gp.NewMatern52(dim) }

// NewSEKernel returns a squared-exponential ARD kernel for the kernel
// ablation.
func NewSEKernel(dim int) Kernel { return gp.NewSE(dim) }

// ProbeDuration returns the paper's profiling-time model for an n-node
// probe (Eq. 7's t(m, n)).
var ProbeDuration = profiler.Duration

// ProbeCost returns Eq. 8's C_profile = P(m)·n·T_profile for a deployment.
var ProbeCost = profiler.Cost
