// Package dnsobs is the public API of the DNS Observatory library: a
// stream-analytics platform for passive DNS (Foremski, Gasser, Moura —
// "DNS Observatory: The Big Picture of the DNS", IMC 2019).
//
// The pipeline ingests resolver↔nameserver transaction summaries,
// tracks the Top-k DNS objects of each configured aggregation with the
// Space-Saving algorithm, accumulates ~45 traffic features per object
// (RCODE counters, QNAME-depth averages, HyperLogLog cardinalities,
// top-TTL trackers, delay/hop/size quartiles), and emits one TSV
// snapshot per aggregation every 60 seconds. Snapshots aggregate in
// time (minutely → 10-minutely → hourly → daily → …) with a retention
// policy, and the analysis helpers regenerate every table and figure of
// the paper's evaluation.
//
// A minimal session:
//
//	pipe := dnsobs.NewPipeline(dnsobs.DefaultPipelineConfig(),
//		dnsobs.StandardAggregations(0.1), onSnapshot)
//	var s dnsobs.Summarizer
//	var sum dnsobs.Summary
//	for tx := range transactions {
//		if err := s.Summarize(tx, &sum); err == nil {
//			pipe.Ingest(&sum, now)
//		}
//	}
//	pipe.Close()
//
// Raw traffic can come from a real capture feed or from the bundled
// synthetic Internet (dnsobs.NewSimulation), which stands in for the
// proprietary SIE feed the paper used.
package dnsobs

import (
	"dnsobservatory/internal/analysis"
	"dnsobservatory/internal/dnssec"
	"dnsobservatory/internal/observatory"
	"dnsobservatory/internal/publicsuffix"
	"dnsobservatory/internal/sie"
	"dnsobservatory/internal/simnet"
	"dnsobservatory/internal/spacesaving"
	"dnsobservatory/internal/tsv"
)

// Core stream types.
type (
	// Transaction is one captured DNS query/response pair: raw packets
	// from the IP header up, with timestamps and the contributing
	// sensor.
	Transaction = sie.Transaction
	// Summary is the preprocessed per-transaction record retained by
	// the pipeline (all privacy-sensitive fields already dropped).
	Summary = sie.Summary
	// Summarizer parses transactions into summaries with reusable
	// buffers.
	Summarizer = sie.Summarizer
	// StreamReader decodes framed transactions from an io.Reader.
	StreamReader = sie.Reader
	// StreamWriter encodes framed transactions onto an io.Writer.
	StreamWriter = sie.Writer
)

// NewStreamReader and NewStreamWriter wrap an SIE-style framed stream.
var (
	NewStreamReader = sie.NewReader
	NewStreamWriter = sie.NewWriter
)

// Pipeline types.
type (
	// Pipeline is the Observatory engine: Top-k tracking plus feature
	// accumulation per aggregation, dumped every window. NewPipeline
	// builds its inline shape; Close ends the stream.
	Pipeline = observatory.Engine
	// PipelineConfig tunes windows, decay, admission filters and
	// feature sizing.
	PipelineConfig = observatory.Config
	// Aggregation defines one tracked object universe (a key extractor
	// and a Top-k capacity).
	Aggregation = observatory.Aggregation
	// KeyFunc extracts an object key from a summary.
	KeyFunc = observatory.KeyFunc
	// TopKEntry is a live Space-Saving cache entry.
	TopKEntry = spacesaving.Entry
)

// Pipeline constructors and the standard datasets of the paper (§3.1).
var (
	NewPipeline           = observatory.New
	DefaultPipelineConfig = observatory.DefaultConfig
	StandardAggregations  = observatory.StandardAggregations

	// Key extractors for custom aggregations.
	SrvIPKey  = observatory.SrvIPKey
	SrcIPKey  = observatory.SrcIPKey
	SrcSrvKey = observatory.SrcSrvKey
	QNameKey  = observatory.QNameKey
	QTypeKey  = observatory.QTypeKey
	RCodeKey  = observatory.RCodeKey
	AAFQDNKey = observatory.AAFQDNKey
	ETLDKey   = observatory.ETLDKeyFunc
	ESLDKey   = observatory.ESLDKeyFunc
)

// Time-series types: TSV snapshots and the aggregation cascade (§2.4).
type (
	// Snapshot is one TSV file: the top objects of one aggregation over
	// one time window.
	Snapshot = tsv.Snapshot
	// SnapshotRow is one object's feature vector.
	SnapshotRow = tsv.Row
	// SnapshotStore manages snapshot files, cascading aggregation and
	// retention in a directory. Both backends (TSV text and compressed
	// columnar) share this type; see NewSnapshotStoreBackend.
	SnapshotStore = tsv.Store
	// TimeLevel is a granularity of the cascade.
	TimeLevel = tsv.Level

	// SnapshotQuery is one read against a store: time range, projection,
	// predicates, top-k.
	SnapshotQuery = tsv.Query
	// SnapshotQueryResult is a query's aggregated, ranked answer.
	SnapshotQueryResult = tsv.Result
	// SnapshotQueryEngine runs queries and keeps query-side metrics.
	SnapshotQueryEngine = tsv.Engine
	// SnapshotProjection selects columns, a key, and value predicates
	// for a store read.
	SnapshotProjection = tsv.Projection
	// SnapshotPredicate keeps rows whose column value lies in [Min, Max].
	SnapshotPredicate = tsv.Pred
)

// Snapshot store and aggregation helpers.
var (
	NewSnapshotStore = tsv.NewStore
	// NewColumnarSnapshotStore stores snapshots in the compressed
	// columnar format with per-block min/max and bloom indexes.
	NewColumnarSnapshotStore = tsv.NewColumnarStore
	// NewSnapshotStoreBackend selects the backend by name
	// (StoreBackendTSV or StoreBackendColumnar).
	NewSnapshotStoreBackend = tsv.NewStoreBackend
	ReadSnapshot            = tsv.Read
	// DecodeColumnarSnapshot decodes one columnar snapshot file;
	// IsColumnarSnapshot sniffs the format.
	DecodeColumnarSnapshot = tsv.DecodeColumnar
	IsColumnarSnapshot     = tsv.IsColumnar
	// QuerySnapshots answers one query against any store backend.
	QuerySnapshots = tsv.RunQuery
	// NewSnapshotQueryEngine builds a reusable, instrumentable engine.
	NewSnapshotQueryEngine = tsv.NewEngine
)

// Store backend names for NewSnapshotStoreBackend.
const (
	StoreBackendTSV      = tsv.BackendTSV
	StoreBackendColumnar = tsv.BackendColumnar
)

// Cascade levels.
const (
	Minutely     = tsv.Minutely
	Decaminutely = tsv.Decaminutely
	Hourly       = tsv.Hourly
	Daily        = tsv.Daily
	Monthly      = tsv.Monthly
	Yearly       = tsv.Yearly
)

// Synthetic traffic: the SIE-feed substitute.
type (
	// Simulation is the synthetic Internet scenario generator.
	Simulation = simnet.Sim
	// SimulationConfig parameterizes the scenario.
	SimulationConfig = simnet.Config
	// SimulationEvent is a scheduled infrastructure change.
	SimulationEvent = simnet.Event
	// WorkloadMix weights the client query classes.
	WorkloadMix = simnet.WorkloadMix
)

// Simulation constructors and events.
var (
	NewSimulation           = simnet.New
	DefaultSimulationConfig = simnet.DefaultConfig
	DefaultWorkloadMix      = simnet.DefaultMix

	TTLChangeEvent     = simnet.TTLChangeEvent
	NegTTLChangeEvent  = simnet.NegTTLChangeEvent
	RenumberEvent      = simnet.RenumberEvent
	NSChangeEvent      = simnet.NSChangeEvent
	NonConformingEvent = simnet.NonConformingEvent
	V6EnableEvent      = simnet.V6EnableEvent
	PRSDTargetEvent    = simnet.PRSDTargetEvent
)

// Analysis helpers: the paper's evaluation as a library.
type (
	// RunResult bundles a simulate→observe pass with the store its
	// snapshots went into; Total and Windows read them back.
	RunResult = analysis.RunResult
	// TrafficCDF is the Fig. 2 artifact.
	TrafficCDF = analysis.TrafficCDF
	// OrgRow is one Table 1 row.
	OrgRow = analysis.OrgRow
	// QTypeRow is one Table 2 row.
	QTypeRow = analysis.QTypeRow
	// HERow is one Fig. 9 row.
	HERow = analysis.HERow
)

// Analysis entry points.
var (
	RunWith         = analysis.RunWith
	DistributionCDF = analysis.DistributionCDF
	ASTable         = analysis.ASTable
	QTypeTable      = analysis.QTypeTable
	HappyEyeballs   = analysis.HappyEyeballs
	TTLSeries       = analysis.TTLSeries
)

// Effective-TLD helpers (Public Suffix List semantics).
var (
	ETLD = publicsuffix.ETLD
	ESLD = publicsuffix.ESLD
)

// DNSSEC: Ed25519 zone keys, RFC 4034 signing and validation.
type (
	// ZoneKey signs and validates RRsets for one zone.
	ZoneKey = dnssec.Key
)

// DNSSEC entry points.
var (
	NewZoneKey       = dnssec.NewKey
	ValidateRRSet    = dnssec.Validate
	VerifyDSRecord   = dnssec.VerifyDS
	DNSSECKeyTag     = dnssec.KeyTag
	AlgorithmEd25519 = dnssec.AlgEd25519
)
