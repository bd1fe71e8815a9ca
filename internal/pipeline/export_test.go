package pipeline

// Chunk exposes the batch fold's unit to the external tests.
const Chunk = chunk
