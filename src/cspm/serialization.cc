#include "cspm/serialization.h"

#include <algorithm>
#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>

#include "util/string_util.h"

namespace cspm::core {
namespace {

std::string RenderNames(std::span<const AttrId> values,
                        const graph::AttributeDictionary& dict) {
  std::vector<std::string> names;
  names.reserve(values.size());
  for (AttrId a : values) names.push_back(dict.Name(a));
  return JoinStrings(names, " ");
}

StatusOr<std::vector<AttrId>> ParseNames(
    const std::vector<std::string>& tokens, size_t begin, size_t end,
    const graph::AttributeDictionary& dict) {
  std::vector<AttrId> out;
  for (size_t i = begin; i < end; ++i) {
    AttrId id = dict.Find(tokens[i]);
    if (id == graph::AttributeDictionary::kNotFound) {
      return Status::NotFound("unknown attribute value: " + tokens[i]);
    }
    out.push_back(id);
  }
  std::sort(out.begin(), out.end());
  return out;
}

}  // namespace

std::string ModelToText(const CspmModel& model,
                        const graph::AttributeDictionary& dict) {
  // Doubles print with max_digits10 (%.17g) so stats and code lengths
  // survive a save→load round trip bit-exactly.
  std::string out = "# cspm model v1\n";
  out += StrFormat("stats %.17g %.17g %llu\n", model.stats.initial_dl_bits,
                   model.stats.final_dl_bits,
                   static_cast<unsigned long long>(model.stats.iterations));
  for (const AStarRef& s : model.astars) {
    out += StrFormat("astar %.17g %llu %llu %llu | ", s.code_length_bits,
                     static_cast<unsigned long long>(s.frequency),
                     static_cast<unsigned long long>(s.core_total),
                     static_cast<unsigned long long>(s.coreset_frequency));
    out += RenderNames(s.core_values, dict);
    out += " | ";
    out += RenderNames(s.leaf_values, dict);
    out += "\n";
  }
  return out;
}

StatusOr<CspmModel> ModelFromText(const std::string& text,
                                  const graph::AttributeDictionary& dict) {
  CspmModel model;
  std::istringstream in(text);
  std::string line;
  size_t line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    std::string_view stripped = StripWhitespace(line);
    if (stripped.empty() || stripped[0] == '#') continue;
    auto tokens = SplitString(stripped, ' ');
    if (tokens[0] == "stats") {
      if (tokens.size() != 4) {
        return Status::IOError(
            StrFormat("line %zu: stats needs 3 fields", line_no));
      }
      model.stats.initial_dl_bits = std::strtod(tokens[1].c_str(), nullptr);
      model.stats.final_dl_bits = std::strtod(tokens[2].c_str(), nullptr);
      model.stats.iterations = std::strtoull(tokens[3].c_str(), nullptr, 10);
    } else if (tokens[0] == "astar") {
      // astar <code> <fL> <fe> <fc> | cores... | leaves...
      size_t bar1 = 0;
      size_t bar2 = 0;
      for (size_t i = 1; i < tokens.size(); ++i) {
        if (tokens[i] == "|") {
          if (bar1 == 0) {
            bar1 = i;
          } else {
            bar2 = i;
            break;
          }
        }
      }
      if (bar1 != 5 || bar2 <= bar1) {
        return Status::IOError(
            StrFormat("line %zu: malformed astar record", line_no));
      }
      AStar s;
      s.code_length_bits = std::strtod(tokens[1].c_str(), nullptr);
      s.frequency = std::strtoull(tokens[2].c_str(), nullptr, 10);
      s.core_total = std::strtoull(tokens[3].c_str(), nullptr, 10);
      s.coreset_frequency = std::strtoull(tokens[4].c_str(), nullptr, 10);
      CSPM_ASSIGN_OR_RETURN(s.core_values,
                            ParseNames(tokens, bar1 + 1, bar2, dict));
      CSPM_ASSIGN_OR_RETURN(
          s.leaf_values, ParseNames(tokens, bar2 + 1, tokens.size(), dict));
      if (s.core_values.empty() || s.leaf_values.empty()) {
        return Status::IOError(
            StrFormat("line %zu: empty core or leaf set", line_no));
      }
      model.astars.push_back(std::move(s));
    } else {
      return Status::IOError(StrFormat("line %zu: unknown record '%s'",
                                       line_no, tokens[0].c_str()));
    }
  }
  return model;
}

Status SaveModelToFile(const CspmModel& model,
                       const graph::AttributeDictionary& dict,
                       const std::string& path) {
  std::ofstream out(path);
  if (!out) {
    return Status::IOError("cannot open " + path + " for writing: " +
                           std::strerror(errno));
  }
  out << ModelToText(model, dict);
  out.flush();
  if (!out) {
    return Status::IOError("write failed for " + path + ": " +
                           std::strerror(errno));
  }
  out.close();
  if (out.fail()) {
    return Status::IOError("close failed for " + path + ": " +
                           std::strerror(errno));
  }
  return Status::OK();
}

StatusOr<CspmModel> LoadModelFromFile(const std::string& path,
                                      const graph::AttributeDictionary& dict) {
  std::ifstream in(path);
  if (!in) {
    return Status::IOError("cannot open " + path + ": " +
                           std::strerror(errno));
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  if (in.bad()) {
    return Status::IOError("read failed for " + path + ": " +
                           std::strerror(errno));
  }
  return ModelFromText(buf.str(), dict);
}

}  // namespace cspm::core
