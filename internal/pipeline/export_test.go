package pipeline

// TimeEvery is the latency sampling stride, for the external tests.
const TimeEvery = timeEvery
