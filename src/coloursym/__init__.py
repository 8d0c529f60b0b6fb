"""Edge-coloured complete graphs, their colour symmetries, and the spin
double covers of symmetric groups that supply those symmetries.

The package exports nothing: each name is imported from its module, as in
`from coloursym.graphs import saturate`, and importing one module loads
only what that module imports."""
